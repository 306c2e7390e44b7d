package ckpt

import (
	"cmp"
	"errors"
	"slices"
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

// Put stores img as the record that carries all of it.
func (t *Tiered) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	return t.PutRecord(app, rank, n, RecordOf(n, nil, nil, nil, img), meta)
}

// PutRecord stores in the fast tier synchronously and spills to the slow
// tier in the background. Each tier takes its record over and may give it
// back to wire.Pool while the other still needs it, so the spill gets a
// pooled copy of its own, taken before the fast tier has the record. A
// record the fast tier kept without all its replicas (ErrUnreplicated) is
// spilled too, and the put still fails with that error.
func (t *Tiered) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error {
	spilled := wire.GetBuf(len(rec))[:len(rec):len(rec)]
	copy(spilled, rec)
	wire.CountCopy(wire.CopyCR, len(rec))
	err := t.fast.PutRecord(app, rank, n, rec, meta)
	if err != nil && !errors.Is(err, ErrUnreplicated) {
		wire.PutBuf(spilled)
		return err
	}
	t.spill(func() error { return t.slow.PutRecord(app, rank, n, spilled, meta) })
	return err
}

// Get reads the fast tier, which resolves its own records, and falls back to
// the slow tier: after a memory wipe, or a loss the fast tier cannot repair,
// the whole checkpoint comes off disk.
func (t *Tiered) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	img, meta, err := t.fast.Get(app, rank, n)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return img, meta, err
	}
	return t.slow.Get(app, rank, n)
}

// GetEnvelope reads slot n's record memory-first with disk fallback.
func (t *Tiered) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	rec, err := t.fast.GetEnvelope(app, rank, n)
	if err == nil || !errors.Is(err, ErrNoCheckpoint) {
		return rec, err
	}
	return t.slow.GetEnvelope(app, rank, n)
}

// List unions both tiers (an index may exist only on disk after a memory
// wipe, or only in memory before its spill lands).
func (t *Tiered) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	a, errA := t.fast.List(app, rank)
	b, errB := t.slow.List(app, rank)
	return union(a, b), errors.Join(errA, errB)
}

// Ranks unions both tiers.
func (t *Tiered) Ranks(app wire.AppID) ([]wire.Rank, error) {
	a, errA := t.fast.Ranks(app)
	b, errB := t.slow.Ranks(app)
	return union(a, b), errors.Join(errA, errB)
}

// union is the sorted union of two lists.
func union[T cmp.Ordered](a, b []T) []T {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
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
