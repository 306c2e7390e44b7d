package ckpt

import (
	"bytes"
	"fmt"
	"sync"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// DefaultFullEvery is not read by this package; it is kept, with
// NewPipeline's ignored argument, for the frozen benchmark module's callers.
const DefaultFullEvery = 8

// Pipeline is the incremental checkpoint capture path: a Backend that turns
// per-epoch Put calls into position-addressed records (chunk.go) in the
// Backend it wraps.
//
//   - Every record carries the blocks that changed since the rank's previous
//     epoch: the writer compares the image with that epoch's (ComputeDelta's
//     block rule, nothing hashed) — the caller's own buffer, borrowed, after
//     PutHinted; a copy after Put. The first record of a rank, and the first
//     after a gap in its indices, carries every block (ImageRecordOf's).
//   - Every record's carry list names, for every block, the slot whose record
//     carries its current version, so a checkpoint resolves from its own
//     record and the slots that one names — no chain to replay.
//
// Everything else — Get and GC included: every Backend resolves its own
// records, and collects none that a surviving record names — is the wrapped
// backend's.
//
// One Pipeline serves one application on one node; ranks are tracked
// independently. It is safe for concurrent use.
type Pipeline struct {
	Backend

	// Observer, when non-nil, receives one EpochEvent per captured record.
	// It must be set before the first Put and must not block (the event
	// plane's emitters satisfy both). Defined here rather than taking an
	// event-store type because ckpt sits below evstore in the import
	// graph; the daemon adapts the callback onto its store.
	Observer func(EpochEvent)

	mu    sync.Mutex
	ranks map[wire.Rank]*rankState

	stats PipelineStats
}

// EpochEvent describes one captured checkpoint record.
type EpochEvent struct {
	App   wire.AppID
	Rank  wire.Rank
	Index uint64
	// RawBytes is the image size; StoredBytes the record's, its envelope
	// and the blocks it carries.
	RawBytes, StoredBytes int
}

// rankState is the writer-side capture cache of one rank.
type rankState struct {
	lastRaw   []byte   // the previous epoch's image, the next one's diff base:
	borrowed  bool     // the writer's buffer (never written here) or our copy
	where     []uint64 // the slot carrying each block of lastRaw (zeroSlot: all-zero)
	lastIndex uint64   // checkpoint index of lastRaw
}

// PipelineStats counts capture-side work, the savings metric of the
// incremental pipeline.
type PipelineStats struct {
	// RawBytes is the total image bytes handed to Put; StoredBytes the
	// record bytes handed to the backend.
	RawBytes, StoredBytes uint64
}

var _ Backend = (*Pipeline)(nil)

// NewPipeline wraps a backend in the incremental capture path. The int is
// ignored (see DefaultFullEvery).
func NewPipeline(inner Backend, _ int) *Pipeline {
	return &Pipeline{Backend: inner, ranks: make(map[wire.Rank]*rankState)}
}

// Stats returns a snapshot of the capture counters.
func (p *Pipeline) Stats() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Put captures checkpoint n of (app, rank) as a record. img stays the
// caller's — one buffer may be mutated and Put again — and the pipeline keeps
// a copy as the rank's next diff base.
func (p *Pipeline) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	_, err := p.put(app, rank, n, img, meta, 0, nil, false)
	return err
}

// PutHinted is Put for a writer that hands img over and may track its writes.
//
// Ownership: on success the pipeline keeps img by reference as the rank's
// diff base until the rank's next successful put, and returns the previous
// base (nil if none), which it no longer references. The caller must not
// write img while it is the base and may write the returned one: two buffers
// ping-pong, and nobody writes what another can read. On error img is not
// kept and nil is returned.
//
// Hint: every byte of img outside the dirty spans equals the byte at the
// same offset of the image of checkpoint hintBase. The hint is honoured only
// when hintBase is the checkpoint the rank's base holds — the image img is
// compared against — and then only blocks overlapping a span are looked at;
// a nil dirty, or any other hintBase, compares every block. The records
// emitted are the same either way.
func (p *Pipeline) PutHinted(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta, hintBase uint64, dirty []svm.Span) ([]byte, error) {
	return p.put(app, rank, n, img, meta, hintBase, dirty, true)
}

// put captures one record and makes img (borrow) or a copy of it the rank's
// next diff base.
func (p *Pipeline) put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta, hintBase uint64, dirty []svm.Span, borrow bool) ([]byte, error) {
	p.mu.Lock()
	st := p.ranks[rank]
	if st == nil {
		st = &rankState{}
		p.ranks[rank] = st
	}
	// The cached copy is only a base for the immediately following index; a
	// gap (restart, skipped epoch) starts over from nothing, which makes
	// every block changed.
	last, lastBorrowed := st.lastRaw, st.borrowed
	base, baseRaw, where := st.lastIndex, last, st.where
	if baseRaw == nil || base+1 != n {
		baseRaw, where = nil, nil
	}
	p.mu.Unlock()

	var hinted []bool
	if dirty != nil && baseRaw != nil && hintBase == base {
		hinted = spanBlocks(dirty, len(img))
	}
	// The rank's carry list is the stored record's, copied in place once the
	// record is stored; a resized image starts from a copy.
	if nb := int(blocksOf(uint64(len(img)))); len(where) != nb {
		where = append(make([]uint64, 0, nb), where[:min(len(where), nb)]...)[:nb]
	}
	var changed []uint32
	var rec []byte
	if baseRaw == nil {
		rec = ImageRecordOf(n, img)
	} else {
		changed = diffBlocks(baseRaw, img, hinted)
		rec = encodeRecord(n, img, changed, where)
	}
	if err := p.Backend.PutRecord(app, rank, n, rec, meta); err != nil {
		return nil, err
	}
	carryList(rec, where)

	raw, prev := img, last
	if !borrow {
		// Copy in: next epoch's diff must not race the caller mutating img. Our
		// own copy, if it was the base, equals img outside the changed blocks.
		raw, prev = last, nil
		if lastBorrowed || cap(raw) < len(img) {
			raw, baseRaw = make([]byte, len(img)), nil
		}
		raw = raw[:len(img)]
		if baseRaw == nil {
			copy(raw, img)
		} else {
			for _, i := range changed {
				lo := int(i) * DeltaBlockSize
				copy(raw[lo:], img[lo:lo+blockLen(len(img), i)])
			}
		}
	}

	p.mu.Lock()
	st.lastRaw, st.borrowed, st.where, st.lastIndex = raw, borrow, where, n
	p.stats.RawBytes += uint64(len(img))
	p.stats.StoredBytes += uint64(len(rec))
	p.mu.Unlock()
	if p.Observer != nil {
		p.Observer(EpochEvent{App: app, Rank: rank, Index: n, RawBytes: len(img), StoredBytes: len(rec)})
	}
	return prev, nil
}

// spanBlocks marks the blocks of an n-byte image that overlap a dirty span.
//
//starfish:deterministic
func spanBlocks(spans []svm.Span, n int) []bool {
	dirty := make([]bool, (n+DeltaBlockSize-1)/DeltaBlockSize)
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

// diffBlocks returns the indices of the blocks of next that differ from base
// (ComputeDelta's block rule, without its per-block copies); a nil base makes
// every block differ. With a non-nil hinted, a block it does not mark is taken
// as unchanged without looking, provided base has a block of the same length
// there; growth past the base and a resized tail block are always compared.
//
//starfish:deterministic
func diffBlocks(base, next []byte, hinted []bool) []uint32 {
	var changed []uint32
	for i, lo := 0, 0; lo < len(next); i, lo = i+1, lo+DeltaBlockSize {
		nb := next[lo:min(lo+DeltaBlockSize, len(next))]
		if lo < len(base) {
			ob := base[lo:min(lo+DeltaBlockSize, len(base))]
			if len(ob) == len(nb) && (hinted != nil && !hinted[i] || bytes.Equal(ob, nb)) {
				continue
			}
		}
		changed = append(changed, uint32(i))
	}
	return changed
}

// Resolve returns the image of slot n of (app, rank), read through be's
// records: slot n's record, with the blocks its carry list names taken from
// the slots that carry them, every block checked against its crc32c. A record
// that carries its whole image is returned as it is (Record.Image), aliasing
// what be returned. It is every backend's cold path; one that keeps images
// materialized looks there first.
func Resolve(be Backend, app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	read := func(s uint64) (*Record, error) {
		b, err := be.GetEnvelope(app, rank, s)
		if err != nil {
			return nil, err
		}
		rec, err := DecodeRecord(b)
		if err == nil && rec.Slot != s {
			err = errBadRecord
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record #%d of app %d rank %d: %v", ErrMissingBlock, s, app, rank, err)
		}
		return rec, rec.Verify()
	}
	rec, err := read(n)
	if err != nil {
		return nil, err
	}
	if rec.Kind != RecFull {
		return nil, fmt.Errorf("%w: record #%d of app %d rank %d was collected", ErrNoCheckpoint, n, app, rank)
	}
	if img, ok := rec.Image(); ok {
		return img, nil
	}
	img := make([]byte, rec.RawLen)
	rec.Apply(img)
	carriers := make(map[uint64]*Record)
	for i := range uint32(len(rec.carried) / 8) {
		s, ok := rec.Carrier(i)
		if !ok {
			continue
		}
		src := carriers[s]
		if src == nil {
			if src, err = read(s); err != nil {
				return nil, fmt.Errorf("%w: slot #%d, carried by record #%d of app %d rank %d: %v",
					ErrMissingBlock, s, n, app, rank, err)
			}
			carriers[s] = src
		}
		b, ok := src.BlockAt(i)
		if !ok || len(b) != blockLen(rec.RawLen, i) {
			return nil, fmt.Errorf("%w: slot #%d does not carry block %d of record #%d",
				ErrMissingBlock, s, i, n)
		}
		copy(img[int(i)*DeltaBlockSize:], b)
	}
	return img, nil
}

// DropApp drops the app's records and the writer-side capture caches.
func (p *Pipeline) DropApp(app wire.AppID) error {
	p.mu.Lock()
	p.ranks = make(map[wire.Rank]*rankState)
	p.mu.Unlock()
	return p.Backend.DropApp(app)
}
