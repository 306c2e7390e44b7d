package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
)

// Position-addressed checkpoint records. Every slot of every Backend — one
// per (app, rank, n) — holds one record: a small envelope followed by the
// 4 KiB blocks the record carries. A block is named by where it sits — the
// slot that wrote it and its index in the image — so nothing is hashed and
// nothing is looked up by content:
//
//   - A record carries the blocks that changed since the slot before it
//     (every block when there is none: ImageRecord, a rank's first epoch, the
//     first after a gap) and, for every block of the image, the slot whose
//     record carries its current version: its carry list. It carries no
//     unchanged bytes; the slots it names do.
//   - An all-zero block is a sentinel in the envelope, never bytes.
//   - Every carried block has its crc32c (Castagnoli) in the envelope, checked
//     whenever the block is read back from a peer or from disk, and the
//     envelope has its own, checked whenever it is decoded.
//
// Layout, big-endian; the envelope is a prefix, so GC reads only it:
//
//	u32 magic, u32 crc32c of the rest of the envelope
//	u8 kind, u64 slot, u64 rawLen
//	u32 blocks, u32 carried       counts of the two lists below
//	blocks  × (u32 index | zeroBit, u32 crc32c)    ascending index
//	carried × u64 slot (zeroSlot: all-zero)        one per block of the image
//	the non-zero blocks' bytes, in list order
//
// A record that carries every block of its image, none of them all-zero, has
// data that is the image itself: resolving it copies nothing (Image).

// Record kinds.
const (
	RecFull = 1 // a carry list: every block's slot, and this slot's changes
	// RecKept is a collected record cut down to the blocks that surviving
	// carry lists still name from it (Keep). It carries; it resolves to
	// nothing.
	RecKept = 3
)

const (
	recMagic  = 0xC1A1D001
	headerLen = 4 + 4 + 1 + 8 + 8 + 4 + 4
	zeroBit   = 1 << 31
	zeroSlot  = math.MaxUint64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroBlock is the sentinel's content.
var zeroBlock [DeltaBlockSize]byte

// ErrMissingBlock reports a record whose blocks cannot be read back whole: a
// carried slot held nowhere, a record that does not decode, or a block failing
// its crc32c. It wraps ErrNoCheckpoint, so restart paths treat an
// unreconstructable checkpoint like a missing one.
var ErrMissingBlock = fmt.Errorf("%w: checkpoint block missing or corrupt", ErrNoCheckpoint)

var errBadRecord = errors.New("ckpt: malformed record")

// Record is a decoded checkpoint record. It aliases the bytes it was decoded
// from.
type Record struct {
	Kind   uint8
	Slot   uint64 // the slot the record was written for
	RawLen int    // byte length of the image it resolves to
	// Names lists, ascending, the other slots the record needs: those its
	// carry list names.
	Names []uint64

	list    []byte // the block list
	offs    []int  // each listed block's offset in data, -1 for a zero block
	carried []byte // the carry list (none in a RecKept record)
	data    []byte
}

func blocksOf(n uint64) uint64 { return (n + DeltaBlockSize - 1) / DeltaBlockSize }

// blockLen is the length of block i of an image of rawLen bytes.
func blockLen(rawLen int, i uint32) int { return min(DeltaBlockSize, rawLen-int(i)*DeltaBlockSize) }

func isZero(b []byte) bool { return bytes.Equal(b, zeroBlock[:len(b)]) }

// ImageRecord returns the record of slot n that carries every block of img —
// what Backend.Put stores, and what Pipeline writes for a rank's first epoch.
func ImageRecord(n uint64, img []byte) []byte {
	nb := blocksOf(uint64(len(img)))
	every := make([]uint32, nb)
	for i := range every {
		every[i] = uint32(i)
	}
	rec, _ := encodeRecord(n, img, every, make([]uint64, nb))
	return rec
}

// encodeRecord writes the record of slot n of img: the blocks changed lists
// (ascending) and the carry list, where patched with them. zero marks the
// changed blocks that are all-zero.
func encodeRecord(n uint64, img []byte, changed []uint32, where []uint64) (rec []byte, zero []bool) {
	zero = make([]bool, len(changed))
	dataLen := 0
	for k, i := range changed {
		lo := int(i) * DeltaBlockSize
		if zero[k] = isZero(img[lo : lo+blockLen(len(img), i)]); !zero[k] {
			dataLen += blockLen(len(img), i)
		}
	}
	env := headerLen + 8*len(changed) + 8*len(where)
	buf := make([]byte, env+dataLen)
	h := buf[:8] // magic and crc: sealEnvelope
	h = append(h, RecFull)
	h = binary.BigEndian.AppendUint64(h, n)
	h = binary.BigEndian.AppendUint64(h, uint64(len(img)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(changed)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(where)))
	data := buf[env:]
	for k, i := range changed {
		lo := int(i) * DeltaBlockSize
		var crc uint32
		if zero[k] {
			i |= zeroBit
		} else {
			b := data[:copy(data, img[lo:lo+blockLen(len(img), i)])]
			crc, data = crc32.Checksum(b, castagnoli), data[len(b):]
		}
		h = binary.BigEndian.AppendUint32(h, i)
		h = binary.BigEndian.AppendUint32(h, crc)
	}
	for i, k := 0, 0; i < len(where); i++ {
		s := where[i]
		if k < len(changed) && changed[k] == uint32(i) {
			if s = n; zero[k] {
				s = zeroSlot
			}
			k++
		}
		h = binary.BigEndian.AppendUint64(h, s)
	}
	return sealEnvelope(buf, env), zero
}

// sealEnvelope stamps the magic and the envelope's crc32c on a record whose
// envelope is its first env bytes.
func sealEnvelope(buf []byte, env int) []byte {
	binary.BigEndian.PutUint32(buf, recMagic)
	binary.BigEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:env], castagnoli))
	return buf
}

// DecodeRecord parses a record, checking that everything it declares is
// backed by its bytes: no reader sizes anything from a count the record does
// not carry. Block contents are not checked here (Verify).
func DecodeRecord(b []byte) (*Record, error) {
	rec, err := decodeEnvelope(b)
	if err != nil {
		return nil, err
	}
	rec.offs = make([]int, len(rec.list)/8)
	off, rest := 0, b[envelopeLen(b):]
	for k := range rec.offs {
		i, zero := rec.entry(k)
		if zero {
			rec.offs[k] = -1
			continue
		}
		rec.offs[k] = off
		off += blockLen(rec.RawLen, i)
	}
	if off != len(rest) {
		return nil, errBadRecord
	}
	rec.data = rest
	return rec, nil
}

// decodeEnvelope parses and checks a record's envelope, which b need only
// begin with.
func decodeEnvelope(b []byte) (*Record, error) {
	if len(b) < headerLen || binary.BigEndian.Uint32(b) != recMagic ||
		envelopeLen(b) > uint64(len(b)) ||
		binary.BigEndian.Uint32(b[4:]) != crc32.Checksum(b[8:envelopeLen(b)], castagnoli) {
		return nil, errBadRecord
	}
	h := b[8:headerLen]
	rec := &Record{Kind: h[0], Slot: binary.BigEndian.Uint64(h[1:])}
	rawLen := binary.BigEndian.Uint64(h[9:])
	nList, nCarried := uint64(binary.BigEndian.Uint32(h[17:])), uint64(binary.BigEndian.Uint32(h[21:]))
	if rec.Slot == zeroSlot || rawLen > math.MaxInt64-DeltaBlockSize {
		return nil, errBadRecord
	}
	rec.RawLen = int(rawLen)
	rec.list = b[headerLen : headerLen+8*nList]
	rec.carried = b[headerLen+8*nList : headerLen+8*(nList+nCarried)]
	nb := blocksOf(rawLen)
	// The list is ascending and inside the image.
	for k := range int(nList) {
		i, _ := rec.entry(k)
		if p, _ := rec.entry(max(k-1, 0)); uint64(i) >= nb || k > 0 && p >= i {
			return nil, errBadRecord
		}
	}
	switch rec.Kind {
	case RecFull:
		if nCarried != nb {
			return nil, errBadRecord
		}
		for i := range int(nb) {
			if s, ok := rec.Carrier(uint32(i)); ok {
				if s > rec.Slot {
					return nil, errBadRecord
				}
				if len(rec.Names) == 0 || rec.Names[len(rec.Names)-1] != s {
					rec.Names = append(rec.Names, s)
				}
			}
		}
		slices.Sort(rec.Names)
		rec.Names = slices.Compact(rec.Names)
	case RecKept:
		if nCarried != 0 {
			return nil, errBadRecord
		}
	default:
		return nil, errBadRecord
	}
	return rec, nil
}

// envelopeLen is the length of the envelope a record header begins.
func envelopeLen(header []byte) uint64 {
	return headerLen + 8*(uint64(binary.BigEndian.Uint32(header[25:]))+uint64(binary.BigEndian.Uint32(header[29:])))
}

// entry returns the k-th listed block's index and whether it is all-zero.
func (r *Record) entry(k int) (uint32, bool) {
	v := binary.BigEndian.Uint32(r.list[8*k:])
	return v &^ zeroBit, v&zeroBit != 0
}

// carrier returns the slot carrying block i of the record's image.
func (r *Record) carrier(i int) uint64 { return binary.BigEndian.Uint64(r.carried[8*i:]) }

// Carrier returns the other slot that carries block i of the record's image;
// false when this record carries it or it is all-zero.
func (r *Record) Carrier(i uint32) (uint64, bool) {
	s := r.carrier(int(i))
	return s, s != r.Slot && s != zeroSlot
}

// Image returns the record's image when the record carries every block of it,
// none all-zero, and names no other slot: then its data is the image, aliased,
// not copied.
func (r *Record) Image() ([]byte, bool) {
	return r.data, r.Kind == RecFull && len(r.data) == r.RawLen && len(r.Names) == 0
}

// block returns the bytes of the k-th listed block, nil for a zero block.
func (r *Record) block(k int) []byte {
	if r.offs[k] < 0 {
		return nil
	}
	i, _ := r.entry(k)
	return r.data[r.offs[k] : r.offs[k]+blockLen(r.RawLen, i)]
}

// Verify checks every block the record carries against its crc32c.
func (r *Record) Verify() error {
	for k := range r.offs {
		if b := r.block(k); b != nil && crc32.Checksum(b, castagnoli) != binary.BigEndian.Uint32(r.list[8*k+4:]) {
			i, _ := r.entry(k)
			return fmt.Errorf("%w: block %d of record #%d fails its crc32c", ErrMissingBlock, i, r.Slot)
		}
	}
	return nil
}

// Apply writes the blocks the record carries — zero blocks included — into
// img, an image of RawLen bytes.
func (r *Record) Apply(img []byte) {
	for k := range r.offs {
		i, _ := r.entry(k)
		lo := int(i) * DeltaBlockSize
		dst := img[lo : lo+blockLen(r.RawLen, i)]
		if b := r.block(k); b != nil {
			copy(dst, b)
		} else {
			clear(dst)
		}
	}
}

// BlockAt returns the non-zero block i the record carries, if it carries one.
func (r *Record) BlockAt(i uint32) ([]byte, bool) {
	k := sort.Search(len(r.offs), func(k int) bool { j, _ := r.entry(k); return j >= i })
	if k == len(r.offs) {
		return nil, false
	}
	if j, _ := r.entry(k); j != i {
		return nil, false
	}
	b := r.block(k)
	return b, b != nil
}

// Keep returns the record cut down to the blocks it carries whose indices keep
// lists (ascending, no repeats) — a RecKept record — or nil when that would
// not halve what it carries.
func (r *Record) Keep(keep []uint32) []byte {
	var ks []int
	size, total := 0, 0
	for k, j := 0, 0; k < len(r.offs); k++ {
		b := r.block(k)
		total += len(b)
		i, _ := r.entry(k)
		for j < len(keep) && keep[j] < i {
			j++
		}
		if b != nil && j < len(keep) && keep[j] == i {
			ks, size = append(ks, k), size+len(b)
		}
	}
	if 2*size > total {
		return nil
	}
	env := headerLen + 8*len(ks)
	buf := make([]byte, env+size)
	buf[8] = RecKept
	binary.BigEndian.PutUint64(buf[9:], r.Slot)
	binary.BigEndian.PutUint64(buf[17:], uint64(r.RawLen))
	binary.BigEndian.PutUint32(buf[25:], uint32(len(ks)))
	list, data := buf[headerLen:], buf[env:]
	for _, k := range ks {
		list = list[copy(list, r.list[8*k:8*k+8]):]
		data = data[copy(data, r.block(k)):]
	}
	return sealEnvelope(buf, env)
}

// SplitBlocks cuts a raw image into DeltaBlockSize blocks (the last one may
// be short). The returned slices alias raw.
func SplitBlocks(raw []byte) [][]byte {
	n := (len(raw) + DeltaBlockSize - 1) / DeltaBlockSize
	out := make([][]byte, 0, n)
	for lo := 0; lo < len(raw); lo += DeltaBlockSize {
		hi := min(lo+DeltaBlockSize, len(raw))
		out = append(out, raw[lo:hi])
	}
	return out
}
