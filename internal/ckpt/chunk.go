package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Content-addressed checkpoint records. Instead of storing an opaque image
// per epoch, the incremental pipeline (see Pipeline) stores a small *record
// envelope* in the (app, rank, n) slot of a Backend, plus the image's 4 KiB
// blocks in a content-addressed block store (hash -> block). A full record
// lists every block of the image; a delta record lists only the blocks that
// changed since the previous epoch, plus the index of the record it builds
// on. Identical blocks — across epochs, across ranks, across the zero-filled
// heap — are stored once.
//
// Envelopes are self-describing (IsRecord): a slot whose bytes are not one is
// a raw image, which every path treats as a record that names no blocks.

// BlockID is the content address of one block: its SHA-256 digest.
type BlockID [32]byte

// HashBlock returns the content address of a block.
func HashBlock(b []byte) BlockID { return sha256.Sum256(b) }

func (id BlockID) String() string { return fmt.Sprintf("%x", id[:8]) }

// BlockRef names one stored block and its (uncompressed) length.
type BlockRef struct {
	ID  BlockID
	Len uint32
}

// DeltaRef is one changed block of a delta record: the block's position in
// the image and its content address.
type DeltaRef struct {
	Index uint32 // block index (offset Index*DeltaBlockSize)
	Ref   BlockRef
}

// RecBlock pairs a block's address with its data for Backend.PutRecord.
type RecBlock struct {
	Ref  BlockRef
	Data []byte
}

// Record kinds.
const (
	RecFull  = 1 // the envelope lists every block of the image
	RecDelta = 2 // the envelope lists only blocks changed since Base
)

const recMagic = 0xC1A1D001

// Record is a decoded checkpoint record envelope.
type Record struct {
	Kind   uint8
	RawLen int // byte length of the reconstructed image
	// Full records: the blocks of the image, in order.
	Refs []BlockRef
	// Delta records: the checkpoint index this delta builds on, the byte
	// length of that base image, and the changed blocks.
	Base    uint64
	BaseLen int
	Deltas  []DeltaRef
}

// Typed reconstruction failures. Both wrap ErrNoCheckpoint so existing
// restart paths treat an unreconstructable chain like a missing checkpoint.
var (
	// ErrBrokenChain reports a delta chain whose base record is missing or
	// unreadable.
	ErrBrokenChain = fmt.Errorf("%w: delta chain link missing", ErrNoCheckpoint)
	// ErrMissingBlock reports a record referencing a block the store no
	// longer holds (or holds with the wrong content).
	ErrMissingBlock = fmt.Errorf("%w: content block missing or corrupt", ErrNoCheckpoint)
)

// IsRecord reports whether an image slot holds a record envelope rather than
// a raw checkpoint image.
func IsRecord(img []byte) bool {
	return len(img) >= 4 && binary.BigEndian.Uint32(img) == recMagic
}

// EncodeFullRecord serializes a full record over the given ordered blocks.
func EncodeFullRecord(rawLen int, refs []BlockRef) []byte {
	buf := make([]byte, 0, 4+1+8+4+len(refs)*36)
	buf = binary.BigEndian.AppendUint32(buf, recMagic)
	buf = append(buf, RecFull)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rawLen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(refs)))
	for _, r := range refs {
		buf = append(buf, r.ID[:]...)
		buf = binary.BigEndian.AppendUint32(buf, r.Len)
	}
	return buf
}

// EncodeDeltaRecord serializes a delta record building on checkpoint base.
func EncodeDeltaRecord(base uint64, baseLen, rawLen int, deltas []DeltaRef) []byte {
	buf := make([]byte, 0, 4+1+8+8+8+4+len(deltas)*40)
	buf = binary.BigEndian.AppendUint32(buf, recMagic)
	buf = append(buf, RecDelta)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rawLen))
	buf = binary.BigEndian.AppendUint64(buf, base)
	buf = binary.BigEndian.AppendUint64(buf, uint64(baseLen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(deltas)))
	for _, d := range deltas {
		buf = binary.BigEndian.AppendUint32(buf, d.Index)
		buf = append(buf, d.Ref.ID[:]...)
		buf = binary.BigEndian.AppendUint32(buf, d.Ref.Len)
	}
	return buf
}

var errBadRecord = errors.New("ckpt: malformed record envelope")

type recReader struct {
	buf []byte
	err error
}

func (r *recReader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = errBadRecord
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *recReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *recReader) ref() (ref BlockRef) {
	b := r.take(32)
	if b != nil {
		copy(ref.ID[:], b)
	}
	ref.Len = r.u32()
	return ref
}

// DecodeRecord parses a record envelope.
func DecodeRecord(env []byte) (*Record, error) {
	r := &recReader{buf: env}
	if r.u32() != recMagic || r.err != nil {
		return nil, errBadRecord
	}
	kind := r.take(1)
	if kind == nil {
		return nil, errBadRecord
	}
	// A length the record's own block list cannot cover is malformed: no
	// reader sizes a buffer from a number the envelope does not back.
	blocksOf := func(n uint64) uint64 { return (n + DeltaBlockSize - 1) / DeltaBlockSize }
	rawLen := r.u64()
	rec := &Record{Kind: kind[0], RawLen: int(rawLen)}
	switch rec.Kind {
	case RecFull:
		n := r.u32()
		// Each ref is 36 bytes; reject counts the envelope cannot hold
		// before allocating.
		if r.err != nil || uint64(n)*36 > uint64(len(r.buf)) || rawLen > uint64(n)*DeltaBlockSize {
			return nil, errBadRecord
		}
		rec.Refs = make([]BlockRef, n)
		for i := range rec.Refs {
			rec.Refs[i] = r.ref()
		}
	case RecDelta:
		rec.Base = r.u64()
		baseLen := r.u64()
		rec.BaseLen = int(baseLen)
		n := r.u32()
		// Growth past the base is changed blocks, which a delta lists.
		if r.err != nil || uint64(n)*40 > uint64(len(r.buf)) ||
			baseLen > math.MaxInt64-DeltaBlockSize || rawLen > math.MaxInt64-DeltaBlockSize ||
			blocksOf(rawLen) > blocksOf(baseLen)+uint64(n) {
			return nil, errBadRecord
		}
		rec.Deltas = make([]DeltaRef, n)
		for i := range rec.Deltas {
			rec.Deltas[i].Index = r.u32()
			rec.Deltas[i].Ref = r.ref()
		}
	default:
		return nil, errBadRecord
	}
	if r.err != nil || len(r.buf) != 0 {
		return nil, errBadRecord
	}
	return rec, nil
}

// RecordRefs returns every block reference of a record envelope (for
// refcounting and mark-sweep GC) without the caller caring about its kind.
func RecordRefs(env []byte) ([]BlockRef, error) {
	rec, err := DecodeRecord(env)
	if err != nil {
		return nil, err
	}
	if rec.Kind == RecFull {
		return rec.Refs, nil
	}
	refs := make([]BlockRef, len(rec.Deltas))
	for i, d := range rec.Deltas {
		refs[i] = d.Ref
	}
	return refs, nil
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
