package ckpt

import (
	"bytes"
	"fmt"
	"sync"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// DefaultFullEvery is the full-image cadence: one full record, then
// FullEvery-1 delta records, then the next full record starts a new chain
// (and makes the old one garbage).
const DefaultFullEvery = 8

// Pipeline is the incremental checkpoint capture path: a Backend that turns
// per-epoch Put calls into content-addressed records in the Backend it wraps.
//
//   - The first checkpoint of a rank (and every FullEvery-th after it) is a
//     full record: every 4 KiB block of the image, content-addressed.
//   - Checkpoints in between are delta records: the writer diffs the image
//     against the previous epoch's (ComputeDelta's block rule) — the
//     caller's own buffer, borrowed, after PutHinted; a copy after Put — and
//     stores only the changed blocks plus a ~40-byte-per-block envelope.
//   - Identical blocks are stored once: across epochs (unchanged blocks are
//     not even re-sent), and across ranks (the backend deduplicates by
//     content hash, so the code/globals segments every rank shares land in
//     the store a single time).
//   - GC is chain-aware: collecting up to a delta record is clamped down to
//     the record's full base so the chain stays reconstructable; once a new
//     full record commits, the previous chain is collected whole.
//
// Everything else — Get included: every Backend resolves its own record
// chains — is the wrapped backend's.
//
// One Pipeline serves one application on one node; ranks are tracked
// independently. It is safe for concurrent use.
type Pipeline struct {
	Backend
	// FullEvery is the full-record cadence; <=1 disables deltas entirely
	// (every epoch is a full record).
	fullEvery int

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
	// Delta marks an incremental record; Base is the index it diffs
	// against (deltas only).
	Delta bool
	Base  uint64
	// ChainLen counts records since and including the chain's full base.
	ChainLen int
	// RawBytes is the image size; StoredBytes the envelope plus block
	// bytes actually written.
	RawBytes, StoredBytes int
}

// rankState is the writer-side capture cache of one rank.
type rankState struct {
	lastRaw   []byte     // the previous epoch's image, the next one's diff base:
	borrowed  bool       // the writer's buffer (never written here) or our copy
	refs      []BlockRef // content addresses of lastRaw's blocks
	lastIndex uint64     // checkpoint index of lastRaw
	sinceFull int        // records since (and including) the chain's full base
}

// PipelineStats counts capture-side work, the savings metric of the
// incremental pipeline.
type PipelineStats struct {
	Fulls, Deltas uint64
	// RawBytes is the total image bytes handed to Put; StoredBytes is the
	// envelope plus block bytes actually handed to the backend.
	RawBytes, StoredBytes uint64
}

var _ Backend = (*Pipeline)(nil)

// NewPipeline wraps a backend in the incremental capture path.
// fullEvery <= 0 selects DefaultFullEvery.
func NewPipeline(inner Backend, fullEvery int) *Pipeline {
	if fullEvery <= 0 {
		fullEvery = DefaultFullEvery
	}
	return &Pipeline{Backend: inner, fullEvery: fullEvery, ranks: make(map[wire.Rank]*rankState)}
}

// Stats returns a snapshot of the capture counters.
func (p *Pipeline) Stats() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Put captures checkpoint n of (app, rank) as a full or delta record,
// per the cadence policy. img stays the caller's — one buffer may be mutated
// and Put again — and the pipeline keeps a copy as the rank's next diff base.
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
	// every block changed and the record a full one.
	last, lastBorrowed := st.lastRaw, st.borrowed
	base, baseRaw, baseRefs := st.lastIndex, last, st.refs
	if baseRaw == nil || base+1 != n {
		baseRaw, baseRefs = nil, nil
	}
	asDelta := p.fullEvery > 1 && baseRaw != nil && st.sinceFull < p.fullEvery
	p.mu.Unlock()

	var hinted []bool
	if dirty != nil && baseRaw != nil && hintBase == base {
		hinted = spanBlocks(dirty, len(img))
	}
	changed := diffBlocks(baseRaw, img, hinted)
	// The rank's block list is patched in place once the record is stored; a
	// full record, which lists it, and a resized image start from a copy.
	refs := baseRefs
	patch := func() {
		for _, d := range changed {
			refs[d.Index] = d.Ref
		}
	}
	if nb := (len(img) + DeltaBlockSize - 1) / DeltaBlockSize; !asDelta || len(refs) != nb {
		refs = make([]BlockRef, nb)
		copy(refs, baseRefs)
		patch()
	}
	// A delta record lists and carries the changed blocks. A full record
	// lists every block and carries every block — it must stand on its own
	// in a store that lost the chain before it — but when it continues the
	// cached copy it costs a delta's hashing: unchanged blocks keep their
	// content addresses.
	var env []byte
	carried := len(changed)
	if !asDelta {
		carried = len(refs)
	}
	blocks := make([]RecBlock, 0, carried)
	seen := make(map[BlockID]bool, carried)
	carry := func(i uint32, ref BlockRef) {
		if !seen[ref.ID] {
			seen[ref.ID] = true
			lo := int(i) * DeltaBlockSize
			blocks = append(blocks, RecBlock{Ref: ref, Data: img[lo:min(lo+DeltaBlockSize, len(img))]})
		}
	}
	if asDelta {
		env = EncodeDeltaRecord(base, len(baseRaw), len(img), changed)
		for _, d := range changed {
			carry(d.Index, d.Ref)
		}
	} else {
		env = EncodeFullRecord(len(img), refs)
		for i, ref := range refs {
			carry(uint32(i), ref)
		}
	}
	if err := p.Backend.PutRecord(app, rank, n, env, blocks, meta); err != nil {
		return nil, err
	}
	patch()

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
		}
		for _, d := range changed {
			lo := int(d.Index) * DeltaBlockSize
			copy(raw[lo:], img[lo:min(lo+DeltaBlockSize, len(img))])
		}
	}

	p.mu.Lock()
	st.lastRaw, st.borrowed, st.refs, st.lastIndex = raw, borrow, refs, n
	if asDelta {
		st.sinceFull++
		p.stats.Deltas++
	} else {
		st.sinceFull = 1
		p.stats.Fulls++
	}
	p.stats.RawBytes += uint64(len(img))
	stored := len(env)
	for _, b := range blocks {
		stored += len(b.Data)
	}
	p.stats.StoredBytes += uint64(stored)
	chainLen := st.sinceFull
	p.mu.Unlock()
	if p.Observer != nil {
		p.Observer(EpochEvent{
			App: app, Rank: rank, Index: n,
			Delta: asDelta, Base: base, ChainLen: chainLen,
			RawBytes: len(img), StoredBytes: stored,
		})
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

// diffBlocks returns the content addresses of the blocks of next that differ
// from base (ComputeDelta's block rule, without its per-block copies); a nil
// base makes every block differ. With a non-nil hinted, a block it does not
// mark is taken as unchanged without looking, provided base has a block of
// the same length there; growth past the base and a resized tail block are
// always compared.
//
//starfish:deterministic
func diffBlocks(base, next []byte, hinted []bool) []DeltaRef {
	var changed []DeltaRef
	for i, lo := 0, 0; lo < len(next); i, lo = i+1, lo+DeltaBlockSize {
		nb := next[lo:min(lo+DeltaBlockSize, len(next))]
		if lo < len(base) {
			ob := base[lo:min(lo+DeltaBlockSize, len(base))]
			if len(ob) == len(nb) && (hinted != nil && !hinted[i] || bytes.Equal(ob, nb)) {
				continue
			}
		}
		changed = append(changed, DeltaRef{Index: uint32(i), Ref: BlockRef{ID: HashBlock(nb), Len: uint32(len(nb))}})
	}
	return changed
}

// ResolveChain returns the checkpoint image of slot n of (app, rank), read
// through be's envelopes and blocks: a raw slot verbatim, a record by walking
// its delta chain back to the full base and replaying it forward. It is every
// backend's cold path; one that keeps chains materialized looks there first.
func ResolveChain(be Backend, app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	env, meta, err := be.GetEnvelope(app, rank, n)
	if err != nil || !IsRecord(env) {
		return env, meta, err
	}
	// Walk back to the full base, collecting the chain (newest first).
	type link struct {
		n   uint64
		rec *Record
	}
	var chain []link
	for {
		rec, err := DecodeRecord(env)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: record #%d of app %d rank %d: %v",
				ErrBrokenChain, n, app, rank, err)
		}
		chain = append(chain, link{n, rec})
		if rec.Kind == RecFull {
			break
		}
		if rec.Base >= n {
			return nil, nil, fmt.Errorf("%w: record #%d of app %d rank %d has non-descending base #%d",
				ErrBrokenChain, n, app, rank, rec.Base)
		}
		n = rec.Base
		if env, _, err = be.GetEnvelope(app, rank, n); err != nil {
			return nil, nil, fmt.Errorf("%w: record #%d of app %d rank %d: %v",
				ErrBrokenChain, n, app, rank, err)
		}
		if !IsRecord(env) {
			return nil, nil, fmt.Errorf("%w: record #%d of app %d rank %d is not a record envelope",
				ErrBrokenChain, n, app, rank)
		}
	}

	// Assemble the full base, then replay the deltas forward.
	baseLink := chain[len(chain)-1]
	raw := make([]byte, baseLink.rec.RawLen)
	off := 0
	for _, ref := range baseLink.rec.Refs {
		if off+int(ref.Len) > len(raw) {
			return nil, nil, fmt.Errorf("%w: full record #%d overruns image", ErrMissingBlock, baseLink.n)
		}
		b, err := fetchBlock(be, app, rank, ref)
		if err != nil {
			return nil, nil, err
		}
		copy(raw[off:], b)
		off += int(ref.Len)
	}
	if off != len(raw) {
		return nil, nil, fmt.Errorf("%w: full record #%d assembles %d of %d bytes",
			ErrMissingBlock, baseLink.n, off, len(raw))
	}
	for i := len(chain) - 2; i >= 0; i-- {
		rec := chain[i].rec
		if rec.BaseLen != len(raw) {
			return nil, nil, fmt.Errorf("%w: delta record #%d expects a base of %d bytes, #%d has %d",
				ErrBrokenChain, chain[i].n, rec.BaseLen, rec.Base, len(raw))
		}
		if rec.RawLen != len(raw) {
			next := make([]byte, rec.RawLen)
			copy(next, raw[:min(len(raw), rec.RawLen)])
			raw = next
		}
		for _, d := range rec.Deltas {
			lo := int(d.Index) * DeltaBlockSize
			if lo+int(d.Ref.Len) > len(raw) {
				return nil, nil, fmt.Errorf("%w: delta record #%d block %d overruns image",
					ErrMissingBlock, chain[i].n, d.Index)
			}
			b, err := fetchBlock(be, app, rank, d.Ref)
			if err != nil {
				return nil, nil, err
			}
			copy(raw[lo:], b)
		}
	}
	return raw, meta, nil
}

// fetchBlock gets one block and verifies its content address, so a corrupt
// or substituted block surfaces as ErrMissingBlock instead of silently
// restoring wrong state.
func fetchBlock(be Backend, app wire.AppID, rank wire.Rank, ref BlockRef) ([]byte, error) {
	b, err := be.GetBlock(app, rank, ref)
	if err != nil {
		return nil, fmt.Errorf("%w: block %s: %v", ErrMissingBlock, ref.ID, err)
	}
	if uint32(len(b)) != ref.Len || HashBlock(b) != ref.ID {
		return nil, fmt.Errorf("%w: block %s fails verification", ErrMissingBlock, ref.ID)
	}
	return b, nil
}

// GC collects checkpoints of (app, rank) below keepFrom, clamped down so a
// surviving delta chain keeps its full base: if checkpoint keepFrom is a
// delta record, collection stops at its chain's base instead. When keepFrom
// is a full record (a new chain just committed), the previous chain —
// records and, in the backend, its now-unreferenced blocks — goes away
// whole.
func (p *Pipeline) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	base, err := p.chainBase(app, rank, keepFrom)
	if err == nil && base < keepFrom {
		keepFrom = base
	}
	return p.Backend.GC(app, rank, keepFrom)
}

// chainBase walks the delta chain of checkpoint n down to its full record's
// index. Raw images and missing checkpoints are their own base.
func (p *Pipeline) chainBase(app wire.AppID, rank wire.Rank, n uint64) (uint64, error) {
	for {
		env, _, err := p.GetEnvelope(app, rank, n)
		if err != nil || !IsRecord(env) {
			return n, err
		}
		rec, err := DecodeRecord(env)
		if err != nil {
			return n, err
		}
		if rec.Kind == RecFull || rec.Base >= n {
			return n, nil
		}
		n = rec.Base
	}
}

// DropApp drops the app's records and the writer-side capture caches.
func (p *Pipeline) DropApp(app wire.AppID) error {
	p.mu.Lock()
	p.ranks = make(map[wire.Rank]*rankState)
	p.mu.Unlock()
	return p.Backend.DropApp(app)
}
