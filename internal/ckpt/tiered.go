package ckpt

import (
	"errors"
	"sync"

	"starfish/internal/wire"
)

// Tiered is a two-level checkpoint backend: every operation completes
// against the fast tier (replicated memory) synchronously, and is spilled to
// the slow tier (disk) by a single background writer. Recovery reads hit the
// fast tier first and fall back to the slow tier, so a restart is RAM-speed
// when the memory copy survived and still possible from disk when it did not
// (e.g. a whole-cluster power cycle, which no in-memory replication factor
// survives).
//
// The spill is asynchronous by design — it is the durability backstop, not
// the commit path — so a crash can lose the latest images from disk; they
// remain recoverable from the fast tier's surviving replicas. Flush blocks
// until the spill queue drains (tests, clean shutdown).
type Tiered struct {
	fast Backend
	slow Backend

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	pending int
	closed  bool

	spillErrs int
	logf      func(string, ...any)
}

var _ Backend = (*Tiered)(nil)

// NewTiered builds a tiered backend over a fast and a slow tier. logf, when
// non-nil, receives spill diagnostics (spill errors are not surfaced to the
// checkpointing process — the fast tier already accepted the data).
func NewTiered(fast, slow Backend, logf func(string, ...any)) *Tiered {
	t := &Tiered{fast: fast, slow: slow, logf: logf}
	t.cond = sync.NewCond(&t.mu)
	go t.spiller()
	return t
}

// spiller is the single background writer draining the spill queue in order,
// preserving the Put/CommitLine/GC ordering the C/R protocols rely on.
func (t *Tiered) spiller() {
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 && t.closed {
			t.mu.Unlock()
			return
		}
		job := t.queue[0]
		t.queue = t.queue[1:]
		t.mu.Unlock()
		job()
		t.mu.Lock()
		t.pending--
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// spill enqueues one slow-tier operation.
func (t *Tiered) spill(job func() error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.pending++
	t.queue = append(t.queue, func() {
		if err := job(); err != nil {
			t.mu.Lock()
			t.spillErrs++
			t.mu.Unlock()
			if t.logf != nil {
				t.logf("[tiered] disk spill: %v", err)
			}
		}
	})
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Flush blocks until every queued spill has reached the slow tier.
func (t *Tiered) Flush() {
	t.mu.Lock()
	for t.pending > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close drains the spill queue and stops the background writer.
func (t *Tiered) Close() {
	t.Flush()
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// SpillErrors reports how many background spills failed (health counter).
func (t *Tiered) SpillErrors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spillErrs
}

// Put makes the one copy of the caller's image that both tiers then share: a
// raw image is a slot that brings no blocks.
func (t *Tiered) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	return t.PutRecord(app, rank, n, append([]byte(nil), img...), nil, meta)
}

// Get reads the fast tier, which resolves its own chains, and falls back to
// a chain walk over both tiers: after a memory wipe the whole chain comes off
// disk, after a partial loss each envelope and block from the tier that still
// has it.
func (t *Tiered) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	img, meta, err := t.fast.Get(app, rank, n)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return img, meta, err
	}
	return ResolveChain(t, app, rank, n)
}

// List unions both tiers (an index may exist only on disk after a memory
// wipe, or only in memory before its spill lands).
func (t *Tiered) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	a, err := t.fast.List(app, rank)
	if err != nil {
		return nil, err
	}
	b, err := t.slow.List(app, rank)
	if err != nil {
		return nil, err
	}
	return mergeSorted(a, b), nil
}

// Ranks unions both tiers.
func (t *Tiered) Ranks(app wire.AppID) ([]wire.Rank, error) {
	a, err := t.fast.Ranks(app)
	if err != nil {
		return nil, err
	}
	b, err := t.slow.Ranks(app)
	if err != nil {
		return nil, err
	}
	seen := make(map[wire.Rank]bool, len(a))
	out := make([]wire.Rank, 0, len(a)+len(b))
	for _, lst := range [][]wire.Rank{a, b} {
		for _, r := range lst {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sortRanks(out)
	return out, nil
}

// CommitLine commits to the fast tier synchronously and spills the record.
func (t *Tiered) CommitLine(app wire.AppID, line RecoveryLine) error {
	if err := t.fast.CommitLine(app, line); err != nil {
		return err
	}
	t.spill(func() error { return t.slow.CommitLine(app, line) })
	return nil
}

// CommittedLine reads memory-first with disk fallback.
func (t *Tiered) CommittedLine(app wire.AppID) (RecoveryLine, error) {
	line, err := t.fast.CommittedLine(app)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return line, err
	}
	return t.slow.CommittedLine(app)
}

// GC collects in both tiers (disk through the ordered spill queue, so a GC
// never races ahead of the Put it is collecting).
func (t *Tiered) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	if err := t.fast.GC(app, rank, keepFrom); err != nil {
		return err
	}
	t.spill(func() error { return t.slow.GC(app, rank, keepFrom) })
	return nil
}

// DropApp drops in both tiers.
func (t *Tiered) DropApp(app wire.AppID) error {
	if err := t.fast.DropApp(app); err != nil {
		return err
	}
	t.spill(func() error { return t.slow.DropApp(app) })
	return nil
}

// PutRecord stores in the fast tier synchronously and spills to the slow
// tier in the background. The slot was handed over and is never written again,
// so the queued spill shares it; block data is the caller's again once the
// call returns, so the spill captures its own copy.
func (t *Tiered) PutRecord(app wire.AppID, rank wire.Rank, n uint64, slot []byte, blocks []RecBlock, meta *Meta) error {
	if err := t.fast.PutRecord(app, rank, n, slot, blocks, meta); err != nil {
		return err
	}
	cp := make([]RecBlock, len(blocks))
	for i, b := range blocks {
		cp[i] = RecBlock{Ref: b.Ref, Data: append([]byte(nil), b.Data...)}
	}
	t.spill(func() error { return t.slow.PutRecord(app, rank, n, slot, cp, meta) })
	return nil
}

// GetBlock reads a content-addressed block memory-first with disk fallback.
func (t *Tiered) GetBlock(app wire.AppID, rank wire.Rank, ref BlockRef) ([]byte, error) {
	b, err := t.fast.GetBlock(app, rank, ref)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return b, err
	}
	return t.slow.GetBlock(app, rank, ref)
}

// GetEnvelope reads slot n's stored bytes memory-first with disk fallback.
func (t *Tiered) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	env, meta, err := t.fast.GetEnvelope(app, rank, n)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return env, meta, err
	}
	return t.slow.GetEnvelope(app, rank, n)
}

func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func sortRanks(rs []wire.Rank) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
