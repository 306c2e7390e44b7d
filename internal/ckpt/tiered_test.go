package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"starfish/internal/wire"
)

// memBackend is a minimal in-memory Backend for exercising Tiered
// without pulling in the replicated store (which lives downstream of this
// package).
type memBackend struct {
	mu      sync.Mutex
	images  map[[3]uint64][]byte
	records map[[3]uint64]bool // which slots hold records
	metas   map[[3]uint64]*Meta
	commits map[wire.AppID]RecoveryLine
	fail    bool
	// unreplicated: PutRecord keeps the record and fails as a replicated
	// store whose push was refused does.
	unreplicated bool
}

func newMemBackend() *memBackend {
	return &memBackend{
		images:  make(map[[3]uint64][]byte),
		records: make(map[[3]uint64]bool),
		metas:   make(map[[3]uint64]*Meta),
		commits: make(map[wire.AppID]RecoveryLine),
	}
}

func bkey(app wire.AppID, rank wire.Rank, n uint64) [3]uint64 {
	return [3]uint64{uint64(app), uint64(uint32(rank)), n}
}

func (m *memBackend) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return errors.New("memBackend: injected failure")
	}
	m.images[bkey(app, rank, n)] = append([]byte(nil), img...)
	delete(m.records, bkey(app, rank, n))
	if meta == nil {
		meta = &Meta{Rank: rank, Index: n}
	}
	m.metas[bkey(app, rank, n)] = meta
	return nil
}

func (m *memBackend) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	m.mu.Lock()
	img, ok := m.images[bkey(app, rank, n)]
	meta, rec := m.metas[bkey(app, rank, n)], m.records[bkey(app, rank, n)]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNoCheckpoint
	}
	if rec {
		var err error
		if img, err = Resolve(m, app, rank, n); err != nil {
			return nil, nil, err
		}
	}
	return img, meta, nil
}

func (m *memBackend) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.records[bkey(app, rank, n)] {
		return nil, ErrNoCheckpoint
	}
	return m.images[bkey(app, rank, n)], nil
}

func (m *memBackend) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error {
	if err := m.Put(app, rank, n, rec, meta); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records[bkey(app, rank, n)] = true
	if m.unreplicated {
		return fmt.Errorf("memBackend: push to node 2: %w", ErrUnreplicated)
	}
	return nil
}

func (m *memBackend) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	for k := range m.images {
		if k[0] == uint64(app) && k[1] == uint64(uint32(rank)) {
			out = append(out, k[2])
		}
	}
	sortU64(out)
	return out, nil
}

func (m *memBackend) Ranks(app wire.AppID) ([]wire.Rank, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[wire.Rank]bool{}
	var out []wire.Rank
	for k := range m.images {
		r := wire.Rank(uint32(k[1]))
		if k[0] == uint64(app) && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out, nil
}

func (m *memBackend) CommitLine(app wire.AppID, line RecoveryLine) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commits[app] = line
	return nil
}

func (m *memBackend) CommittedLine(app wire.AppID) (RecoveryLine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	line, ok := m.commits[app]
	if !ok {
		return nil, ErrNoCheckpoint
	}
	return line, nil
}

func (m *memBackend) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.images {
		if k[0] == uint64(app) && k[1] == uint64(uint32(rank)) && k[2] < keepFrom {
			delete(m.images, k)
			delete(m.metas, k)
		}
	}
	return nil
}

func (m *memBackend) DropApp(app wire.AppID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.images {
		if k[0] == uint64(app) {
			delete(m.images, k)
			delete(m.metas, k)
		}
	}
	delete(m.commits, app)
	return nil
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestTieredSpillsToDisk(t *testing.T) {
	fast := newMemBackend()
	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, disk, t.Logf)
	defer tiered.Close()

	img := bytes.Repeat([]byte{3}, 512)
	if err := tiered.Put(1, 0, 1, img, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := tiered.CommitLine(1, RecoveryLine{0: 1}); err != nil {
		t.Fatalf("CommitLine: %v", err)
	}
	tiered.Flush()

	// The disk tier caught up in the background.
	got, _, err := disk.Get(1, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("disk Get after spill = %v", err)
	}
	line, err := disk.CommittedLine(1)
	if err != nil || line[0] != 1 {
		t.Fatalf("disk CommittedLine after spill = %v, %v", line, err)
	}
}

// TestTieredSpillsUnreplicatedRecord: a record the fast tier kept without its
// replicas still goes to disk, and the put reports the fast tier's error.
func TestTieredSpillsUnreplicatedRecord(t *testing.T) {
	fast := newMemBackend()
	fast.unreplicated = true
	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, disk, t.Logf)
	defer tiered.Close()

	img := bytes.Repeat([]byte{7}, 512)
	if err := tiered.Put(1, 0, 1, img, nil); !errors.Is(err, ErrUnreplicated) {
		t.Fatalf("Put = %v, want ErrUnreplicated", err)
	}
	tiered.Flush()
	got, _, err := disk.Get(1, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("disk Get of the unreplicated record = %v", err)
	}
}

func TestTieredReadsFallBackToDisk(t *testing.T) {
	fast := newMemBackend()
	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Seed disk only — models a cluster-wide restart that wiped all RAM.
	if err := disk.Put(2, 1, 4, []byte("cold"), nil); err != nil {
		t.Fatal(err)
	}
	if err := disk.CommitLine(2, RecoveryLine{1: 4}); err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, disk, t.Logf)
	defer tiered.Close()

	img, meta, err := tiered.Get(2, 1, 4)
	if err != nil || string(img) != "cold" || meta.Index != 4 {
		t.Fatalf("Get fallback = %q, %+v, %v", img, meta, err)
	}
	line, err := tiered.CommittedLine(2)
	if err != nil || line[1] != 4 {
		t.Fatalf("CommittedLine fallback = %v, %v", line, err)
	}
	ns, err := tiered.List(2, 1)
	if err != nil || len(ns) != 1 || ns[0] != 4 {
		t.Fatalf("List union = %v, %v", ns, err)
	}
	rs, err := tiered.Ranks(2)
	if err != nil || len(rs) != 1 || rs[0] != 1 {
		t.Fatalf("Ranks union = %v, %v", rs, err)
	}
}

func TestTieredListUnionsBothTiers(t *testing.T) {
	fast := newMemBackend()
	slow := newMemBackend()
	tiered := NewTiered(fast, slow, t.Logf)
	defer tiered.Close()

	// One index in memory only, one on "disk" only, one in both.
	if err := fast.Put(3, 0, 1, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := slow.Put(3, 0, 2, []byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fast.Put(3, 0, 3, []byte("c"), nil); err != nil {
		t.Fatal(err)
	}
	if err := slow.Put(3, 0, 3, []byte("c"), nil); err != nil {
		t.Fatal(err)
	}
	ns, err := tiered.List(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3}
	if len(ns) != len(want) {
		t.Fatalf("List = %v, want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("List = %v, want %v", ns, want)
		}
	}
}

func TestTieredSpillFailureIsCounted(t *testing.T) {
	fast := newMemBackend()
	slow := newMemBackend()
	slow.fail = true
	tiered := NewTiered(fast, slow, t.Logf)
	defer tiered.Close()

	if err := tiered.Put(4, 0, 1, []byte("x"), nil); err != nil {
		t.Fatalf("Put must succeed despite spill failure: %v", err)
	}
	tiered.Flush()
	if tiered.SpillErrors() != 1 {
		t.Fatalf("SpillErrors = %d, want 1", tiered.SpillErrors())
	}
	// The fast tier still serves the image.
	img, _, err := tiered.Get(4, 0, 1)
	if err != nil || string(img) != "x" {
		t.Fatalf("Get after failed spill = %q, %v", img, err)
	}
}

func TestTieredGCOrderedBehindPut(t *testing.T) {
	fast := newMemBackend()
	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, disk, t.Logf)
	defer tiered.Close()

	// A GC queued after a Put of the same index must not collect it: the
	// spill queue preserves order.
	if err := tiered.Put(5, 0, 1, []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Put(5, 0, 2, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	if err := tiered.GC(5, 0, 2); err != nil {
		t.Fatal(err)
	}
	tiered.Flush()
	if _, _, err := tiered.Get(5, 0, 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Get collected = %v, want ErrNoCheckpoint", err)
	}
	img, _, err := disk.Get(5, 0, 2)
	if err != nil || string(img) != "new" {
		t.Fatalf("disk kept = %q, %v", img, err)
	}
}
