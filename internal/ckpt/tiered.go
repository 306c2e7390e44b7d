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
	fast ChunkedBackend
	slow ChunkedBackend

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	pending int
	closed  bool

	spillErrs int
	logf      func(string, ...any)
}

var _ ChunkedBackend = (*Tiered)(nil)

// NewTiered builds a tiered backend over a fast and a slow tier. logf, when
// non-nil, receives spill diagnostics (spill errors are not surfaced to the
// checkpointing process — the fast tier already accepted the data).
func NewTiered(fast, slow ChunkedBackend, logf func(string, ...any)) *Tiered {
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

// Put writes to the fast tier synchronously and spills to disk in the
// background. The image is referenced (not copied) by the queued spill;
// checkpoint images are immutable once stored, so this is safe.
func (t *Tiered) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	if err := t.fast.Put(app, rank, n, img, meta); err != nil {
		return err
	}
	t.spill(func() error { return t.slow.Put(app, rank, n, img, meta) })
	return nil
}

// Get reads memory-first, falling back to disk for images whose memory
// replicas did not survive.
func (t *Tiered) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	img, meta, err := t.fast.Get(app, rank, n)
	if err == nil {
		return img, meta, nil
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		return nil, nil, err
	}
	return t.slow.Get(app, rank, n)
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
	if err == nil {
		return line, nil
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		return nil, err
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

// PutRecord forwards a chunked put to the fast tier synchronously and spills
// it to the slow tier. The PutRecord contract only guarantees block data for
// the duration of the call, so the spill captures its own copy.
func (t *Tiered) PutRecord(app wire.AppID, rank wire.Rank, n uint64, env []byte, blocks []RecBlock, meta *Meta) error {
	if err := t.fast.PutRecord(app, rank, n, env, blocks, meta); err != nil {
		return err
	}
	cp := make([]RecBlock, len(blocks))
	for i, b := range blocks {
		cp[i] = RecBlock{Ref: b.Ref, Data: append([]byte(nil), b.Data...)}
	}
	t.spill(func() error { return t.slow.PutRecord(app, rank, n, env, cp, meta) })
	return nil
}

// GetBlock reads a content-addressed block memory-first with disk fallback.
func (t *Tiered) GetBlock(app wire.AppID, rank wire.Rank, ref BlockRef) ([]byte, error) {
	b, err := t.fast.GetBlock(app, rank, ref)
	if err == nil {
		return b, nil
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		return nil, err
	}
	return t.slow.GetBlock(app, rank, ref)
}

// GetEnvelope reads slot n's stored bytes verbatim, memory-first with disk
// fallback — the chain walker's view of the tiers (the fast tier's plain Get
// resolves records, which would hide the links).
func (t *Tiered) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	env, meta, err := envelopeGet(t.fast, app, rank, n)
	if err == nil {
		return env, meta, nil
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		return nil, nil, err
	}
	return t.slow.Get(app, rank, n)
}

// ResolveRecord reconstructs a record chain, delegating to the fast tier's
// materialized resolver when it has one and walking blocks otherwise.
func (t *Tiered) ResolveRecord(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	if rr, ok := t.fast.(RecordResolver); ok {
		raw, meta, err := rr.ResolveRecord(app, rank, n)
		if err == nil {
			return raw, meta, nil
		}
		if !errors.Is(err, ErrNoCheckpoint) {
			return nil, nil, err
		}
		// Fast tier lost the chain (e.g. memory wipe): fall through to the
		// tiered walk, which can pull records and blocks back off disk.
	}
	env, meta, err := t.GetEnvelope(app, rank, n)
	if err != nil {
		return nil, nil, err
	}
	if !IsRecord(env) {
		return env, meta, nil
	}
	raw, err := ResolveChain(t, app, rank, n, env)
	if err != nil {
		return nil, nil, err
	}
	return raw, meta, nil
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
