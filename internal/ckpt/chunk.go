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

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// Position-addressed checkpoint records. Every slot of every Backend — one
// per (app, rank, n) — holds one record: a small envelope followed by the
// 4 KiB blocks the record carries. A block is named by where it sits — the
// slot that wrote it and its index in the image — so nothing is hashed and
// nothing is looked up by content:
//
//   - A record carries the blocks that changed since the slot before it
//     (every block when there is none: Backend.Put, an application that
//     tracks no writes, a rank's first epoch, the first after a gap) and,
//     for every block of the image, the slot whose record carries its
//     current version: its carry list. It carries no unchanged bytes; the
//     slots it names do. RecordOf writes both.
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

// RecordOf returns the record of slot n of the image parts concatenate to.
// It is the one writer of records: what Backend.Put stores, what a rank
// writes each epoch, what Pipeline writes.
//
// With no base the record carries every block that is not all zero. With a
// base — the image of the slot before n — and where, its carry list, it
// carries only the blocks that differ from base and names where's slot for
// every other block. Either way it looks first (changedBlocks: with no base
// that is a zero test per block, which a non-zero block fails on its first
// bytes), then takes the record's buffer from wire.Pool — unzeroed: it writes
// every byte — and copies and checksums only the blocks it carries. The
// record is sized exactly, envelope plus the bytes it carries (cap == len),
// and pool-owned: whoever drops it last may give it back with wire.PutBuf
// (Backend.PutRecord takes it over). dirty, when
// non-nil, is a hint: every byte of the image outside its spans equals base's
// byte at the same offset, so a block no span touches is carried without
// looking when base has a block of the same length there. A sound hint
// changes nothing in the record, only the work.
//
//starfish:deterministic
func RecordOf(n uint64, base []byte, where []uint64, dirty []svm.Span, parts ...[]byte) []byte {
	return recordInto(wire.GetBuf, n, base, where, dirty, parts...)
}

// recordInto is RecordOf writing into a buffer from get, whose contents it
// never reads: every byte of the record is written here.
//
//starfish:deterministic
func recordInto(get func(int) []byte, n uint64, base []byte, where []uint64, dirty []svm.Span, parts ...[]byte) []byte {
	rawLen := 0
	for _, p := range parts {
		rawLen += len(p)
	}
	nb := int(blocksOf(uint64(rawLen)))
	changed, dataLen := changedBlocks(base, dirty, rawLen, parts)
	env := headerLen + 8*len(changed) + 8*nb
	size := env + dataLen
	buf := get(size)[:size:size]
	buf[8] = RecFull
	binary.BigEndian.PutUint64(buf[9:], n)
	binary.BigEndian.PutUint64(buf[17:], uint64(rawLen))
	binary.BigEndian.PutUint32(buf[25:], uint32(len(changed)))
	binary.BigEndian.PutUint32(buf[29:], uint32(nb))
	list, carried, data := buf[headerLen:], buf[headerLen+8*len(changed):], buf[env:]
	known := min(nb, len(where))
	for i := range known {
		binary.BigEndian.PutUint64(carried[8*i:], where[i])
	}
	clear(carried[8*known : 8*nb]) // past a short carry list: the changed blocks below, or slot 0
	cur := cursor{parts: parts}
	w := 0  // bytes of data written
	at := 0 // the block the cursor is at
	for k, e := range changed {
		i := e &^ zeroBit
		cur.skip((int(i) - at) * DeltaBlockSize)
		at = int(i) + 1
		bl := blockLen(rawLen, i)
		crc, slot := uint32(0), n
		if e&zeroBit != 0 {
			cur.skip(bl)
			slot = zeroSlot
		} else {
			b := data[w : w+bl]
			cur.read(b)
			crc, w = crc32.Checksum(b, castagnoli), w+bl
		}
		binary.BigEndian.PutUint32(list[8*k:], e)
		binary.BigEndian.PutUint32(list[8*k+4:], crc)
		binary.BigEndian.PutUint64(carried[8*i:], slot)
	}
	return sealEnvelope(buf, env)
}

// changedBlocks lists, ascending, the blocks of the rawLen-byte image parts
// concatenate to that differ from base — every block, when base is nil —
// zeroBit marking an all-zero one, and returns the bytes the others hold. A
// block no dirty span touches is taken as unchanged without looking, provided
// base has a block of the same length there; growth past base and a resized
// tail block always differ.
//
//starfish:deterministic
func changedBlocks(base []byte, dirty []svm.Span, rawLen int, parts [][]byte) ([]uint32, int) {
	var hinted []bool
	if dirty != nil {
		hinted = spanBlocks(dirty, rawLen)
	}
	var changed []uint32
	if base == nil {
		changed = make([]uint32, 0, blocksOf(uint64(rawLen)))
	}
	var scratch [DeltaBlockSize]byte
	cur := cursor{parts: parts}
	dataLen := 0
	for i, lo := 0, 0; lo < rawLen; i, lo = i+1, lo+DeltaBlockSize {
		bl := min(DeltaBlockSize, rawLen-lo)
		ob := base[min(lo, len(base)):min(lo+DeltaBlockSize, len(base))]
		if len(ob) == bl && hinted != nil && !hinted[i] {
			cur.skip(bl)
			continue
		}
		b := cur.take(bl, scratch[:])
		if len(ob) == bl && bytes.Equal(ob, b) {
			continue
		}
		e := uint32(i)
		if isZero(b) {
			e |= zeroBit
		} else {
			dataLen += bl
		}
		changed = append(changed, e)
	}
	return changed, dataLen
}

// spanBlocks marks the blocks of an n-byte image that overlap a dirty span.
//
//starfish:deterministic
func spanBlocks(spans []svm.Span, n int) []bool {
	dirty := make([]bool, blocksOf(uint64(n)))
	for _, sp := range spans {
		lo, hi := max(sp.Off, 0), min(sp.Off+sp.Len, n)
		if lo >= hi {
			continue
		}
		for b := lo / DeltaBlockSize; b <= (hi-1)/DeltaBlockSize; b++ {
			dirty[b] = true
		}
	}
	return dirty
}

// cursor reads the image parts concatenate to, front to back.
type cursor struct {
	parts  [][]byte
	pi, po int // the next byte is parts[pi][po]
}

// read copies the next len(dst) bytes into dst.
func (c *cursor) read(dst []byte) {
	for len(dst) > 0 {
		k := copy(dst, c.parts[c.pi][c.po:])
		dst = dst[k:]
		if c.po += k; c.po == len(c.parts[c.pi]) {
			c.pi, c.po = c.pi+1, 0
		}
	}
}

// skip passes over the next n bytes.
func (c *cursor) skip(n int) {
	for n > 0 {
		k := min(n, len(c.parts[c.pi])-c.po)
		n -= k
		if c.po += k; c.po == len(c.parts[c.pi]) {
			c.pi, c.po = c.pi+1, 0
		}
	}
}

// take returns the next n bytes: a view of the part that holds them, or a
// copy in scratch when they straddle parts.
func (c *cursor) take(n int, scratch []byte) []byte {
	for c.pi < len(c.parts) && c.po == len(c.parts[c.pi]) {
		c.pi, c.po = c.pi+1, 0
	}
	if p := c.parts[c.pi]; len(p)-c.po >= n {
		c.po += n
		return p[c.po-n : c.po]
	}
	b := scratch[:n]
	c.read(b)
	return b
}

// CarryList returns the carry list of rec, a RecFull record, in where's
// memory when it has room: the where of the record that follows it.
func CarryList(rec []byte, where []uint64) []uint64 {
	nb := int(binary.BigEndian.Uint32(rec[29:]))
	where = slices.Grow(where[:0], nb)[:nb]
	c := rec[envelopeLen(rec)-8*uint64(nb):]
	for i := range where {
		where[i] = binary.BigEndian.Uint64(c[8*i:])
	}
	return where
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
// lists (ascending, no repeats) — a RecKept record, in a wire.Pool buffer as
// RecordOf's records are — or nil when that would not halve what it carries.
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
	buf := wire.GetBuf(env + size)[: env+size : env+size]
	buf[8] = RecKept
	binary.BigEndian.PutUint64(buf[9:], r.Slot)
	binary.BigEndian.PutUint64(buf[17:], uint64(r.RawLen))
	binary.BigEndian.PutUint32(buf[25:], uint32(len(ks)))
	binary.BigEndian.PutUint32(buf[29:], 0) // it carries for others; it names none
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
