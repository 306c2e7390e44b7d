package ckpt

import (
	"fmt"
	"sync"

	"starfish/internal/wire"
)

// DefaultFullEvery is not read by this package; it is kept, with
// NewPipeline's ignored argument, for the frozen benchmark module's callers.
const DefaultFullEvery = 8

// Pipeline is a Backend that writes each Put as a record (RecordOf)
// carrying only the blocks that changed since the rank's previous Put, and
// naming, for every other block, the slot whose record carries it. It keeps
// a copy of each rank's last image to diff against; the first Put of a rank,
// and the first after a gap in its indices, carries every block. A rank's C/R
// module keeps the same diff state itself (proc's crModule); Pipeline serves
// callers that hand over whole images, such as benchmarks and tests.
//
// Everything else — Get and GC included: every Backend resolves its own
// records, and collects none that a surviving record names — is the wrapped
// backend's. It is safe for concurrent use; one rank's Puts are sequential.
type Pipeline struct {
	Backend

	mu    sync.Mutex
	ranks map[wire.Rank]*rankState
	stats PipelineStats
}

// rankState is the diff state of one rank: the image of slot index, our copy,
// and its carry list (spare is the next one's array).
type rankState struct {
	image        []byte
	where, spare []uint64
	index        uint64
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
// caller's; the pipeline keeps a copy as the rank's next diff base.
func (p *Pipeline) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	p.mu.Lock()
	st := p.ranks[rank]
	if st == nil {
		st = &rankState{}
		p.ranks[rank] = st
	}
	p.mu.Unlock()
	base := st.image
	if st.index+1 != n {
		base = nil
	}
	rec := RecordOf(n, base, st.where, nil, img)
	// What is read of the record is read before the backend takes it over.
	stored, where := len(rec), CarryList(rec, st.spare)
	if err := p.Backend.PutRecord(app, rank, n, rec, meta); err != nil {
		return err
	}
	st.where, st.spare, st.index = where, st.where, n
	if base != nil && len(base) == len(img) {
		// Our copy differs from img only in the blocks the record carries.
		for i, s := range st.where {
			if s == n || s == zeroSlot {
				lo := i * DeltaBlockSize
				copy(base[lo:], img[lo:lo+blockLen(len(img), uint32(i))])
			}
		}
	} else {
		st.image = append(st.image[:0], img...)
	}
	p.mu.Lock()
	p.stats.RawBytes += uint64(len(img))
	p.stats.StoredBytes += uint64(stored)
	p.mu.Unlock()
	return nil
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

// DropApp drops the app's records and the ranks' diff state.
func (p *Pipeline) DropApp(app wire.AppID) error {
	p.mu.Lock()
	p.ranks = make(map[wire.Rank]*rankState)
	p.mu.Unlock()
	return p.Backend.DropApp(app)
}
