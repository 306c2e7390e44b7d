package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"starfish/internal/wire"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// put stores a complete checkpoint n with a trivial payload.
func put(t *testing.T, s *Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	if err := s.Put(app, rank, n, []byte{byte(n)}, nil); err != nil {
		t.Fatal(err)
	}
}

// orphanImage simulates the crash window inside Put: the record rename
// happened, the metadata rename did not.
func orphanImage(t *testing.T, s *Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	writeRankFile(t, s, app, rank, fmt.Sprintf("ckpt-%d.rec", n), RecordOf(n, nil, nil, nil, []byte("partial")))
}

func writeRankFile(t *testing.T, s *Store, app wire.AppID, rank wire.Rank, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(s.rankDir(app, rank), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.rankDir(app, rank), name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGetOrphanImageIsNoCheckpoint is the regression test for the
// crash-window fix: a checkpoint whose image landed but whose metadata
// never did must read as "no checkpoint", not as a raw file error that a
// restart would treat as a store failure.
func TestGetOrphanImageIsNoCheckpoint(t *testing.T) {
	s := newTestStore(t)
	orphanImage(t, s, 1, 0, 7)
	if _, _, err := s.Get(1, 0, 7); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Get(orphan) = %v, want ErrNoCheckpoint", err)
	}
	// A later complete Put of the same index repairs the orphan.
	put(t, s, 1, 0, 7)
	img, meta, err := s.Get(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 1 || meta.Index != 7 {
		t.Fatalf("repaired checkpoint = %d bytes, meta %+v", len(img), meta)
	}
}

// TestListSkipsOrphanImages: List must agree with Get — an orphan image is
// not a checkpoint, so recovery-line computation never selects it.
func TestListSkipsOrphanImages(t *testing.T) {
	s := newTestStore(t)
	put(t, s, 1, 0, 1)
	orphanImage(t, s, 1, 0, 2)
	put(t, s, 1, 0, 3)
	ns, err := s.List(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Fatalf("List = %v, want [1 3]", ns)
	}
	// GatherLine walks List's result, so the orphan must not break it.
	line, err := GatherLine(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if line[0] != 3 {
		t.Fatalf("line = %v, want rank 0 at 3", line)
	}
}

// TestGCLeavesForeignFiles: GC deletes only files it recognises as
// checkpoint artifacts; anything else in the rank directory (editor
// droppings, operator notes, unrelated tools) survives.
func TestGCLeavesForeignFiles(t *testing.T) {
	s := newTestStore(t)
	put(t, s, 1, 0, 1)
	put(t, s, 1, 0, 2)
	orphanImage(t, s, 1, 0, 0) // orphan below keepFrom: collected
	foreign := []string{"README", "ckpt-notanumber.rec", "other-3.rec", "ckpt-1.img", "ckpt-1.rec.tmp"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(s.rankDir(1, 0), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.GC(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(s.rankDir(1, 0), name)); err != nil {
			t.Errorf("foreign file %s was deleted: %v", name, err)
		}
	}
	if _, err := os.Stat(s.slotPath(1, 0, 0, "rec")); !errors.Is(err, os.ErrNotExist) {
		t.Error("orphan record below keepFrom survived GC")
	}
	ns, err := s.List(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0] != 2 {
		t.Fatalf("List after GC = %v, want [2]", ns)
	}
}

// TestGCCollectsStagingFiles: a staging file a crash left between atomicWrite's
// CreateTemp and its rename is the rank's own: GC removes one below keepFrom
// and leaves one at or above it, which may be a write in flight. List never
// counts one.
func TestGCCollectsStagingFiles(t *testing.T) {
	s := newTestStore(t)
	put(t, s, 1, 0, 1)
	put(t, s, 1, 0, 2)
	below := []string{"ckpt-0.rec.tmp-17", "ckpt-1.meta.tmp-3"}
	above := []string{"ckpt-2.rec.tmp-5", "ckpt-3.rec.tmp-8", "ckpt-3.meta.tmp-9"}
	for _, name := range append(below, above...) {
		writeRankFile(t, s, 1, 0, name, []byte("staged"))
	}
	if ns, err := s.List(1, 0); err != nil || len(ns) != 2 {
		t.Fatalf("List = %v, %v; want the two checkpoints", ns, err)
	}
	if err := s.GC(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range below {
		if _, err := os.Stat(filepath.Join(s.rankDir(1, 0), name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("staging file %s below keepFrom survived GC: %v", name, err)
		}
	}
	for _, name := range above {
		if _, err := os.Stat(filepath.Join(s.rankDir(1, 0), name)); err != nil {
			t.Errorf("staging file %s at or above keepFrom was deleted: %v", name, err)
		}
	}
	if ns, err := s.List(1, 0); err != nil || len(ns) != 1 || ns[0] != 2 {
		t.Fatalf("List after GC = %v, %v; want [2]", ns, err)
	}
}

// TestGCKeepFromPastNewest: a keepFrom beyond every stored checkpoint
// empties the rank cleanly, and the store keeps working afterwards.
func TestGCKeepFromPastNewest(t *testing.T) {
	s := newTestStore(t)
	for n := uint64(1); n <= 3; n++ {
		put(t, s, 1, 0, n)
	}
	if err := s.GC(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if ns, _ := s.List(1, 0); len(ns) != 0 {
		t.Fatalf("List = %v, want empty", ns)
	}
	if _, _, err := s.Get(1, 0, 3); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Get after full GC = %v, want ErrNoCheckpoint", err)
	}
	put(t, s, 1, 0, 101)
	if ns, _ := s.List(1, 0); len(ns) != 1 || ns[0] != 101 {
		t.Fatalf("List after re-put = %v, want [101]", ns)
	}
	// GC of a rank directory that never existed is a no-op, not an error.
	if err := s.GC(1, 9, 5); err != nil {
		t.Fatal(err)
	}
}

// TestGCRacesConcurrentPut: one goroutine keeps checkpointing forward while
// another collects behind it — the steady state of a long-running app. GC
// tolerates files vanishing underneath it and never deletes a checkpoint at
// or above keepFrom.
func TestGCRacesConcurrentPut(t *testing.T) {
	s := newTestStore(t)
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2*rounds)
	go func() {
		defer wg.Done()
		for n := uint64(1); n <= rounds; n++ {
			if err := s.Put(1, 0, n, []byte{byte(n)}, nil); err != nil {
				errc <- fmt.Errorf("put #%d: %w", n, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := uint64(1); n <= rounds; n++ {
			if err := s.GC(1, 0, n); err != nil {
				errc <- fmt.Errorf("gc keepFrom=%d: %w", n, err)
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The newest checkpoint is above every keepFrom used, so it survives.
	img, meta, err := s.Get(1, 0, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 1 || meta.Index != rounds {
		t.Fatalf("survivor = %d bytes, meta %+v", len(img), meta)
	}
}

// TestGCRacesPutOfSameIndex: a GC whose keepFrom is above index n racing a
// Put of exactly n (a stale incarnation re-writing a checkpoint the
// coordinator already collected). Whatever interleaving happens, neither
// side errors and the store ends in one of the two legal states: the
// checkpoint fully present, or absent as ErrNoCheckpoint — never a raw
// read error from a half-deleted pair.
func TestGCRacesPutOfSameIndex(t *testing.T) {
	s := newTestStore(t)
	const n = 5
	for i := 0; i < 100; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		var putErr, gcErr error
		go func() {
			defer wg.Done()
			putErr = s.Put(1, 0, n, []byte("img"), nil)
		}()
		go func() {
			defer wg.Done()
			gcErr = s.GC(1, 0, n+1)
		}()
		wg.Wait()
		if putErr != nil || gcErr != nil {
			t.Fatalf("iter %d: put=%v gc=%v", i, putErr, gcErr)
		}
		if _, _, err := s.Get(1, 0, n); err != nil && !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("iter %d: Get = %v, want success or ErrNoCheckpoint", i, err)
		}
		ns, err := s.List(1, 0)
		if err != nil {
			t.Fatalf("iter %d: List = %v", i, err)
		}
		for _, got := range ns {
			if got != n {
				t.Fatalf("iter %d: List = %v", i, ns)
			}
		}
		s.GC(1, 0, n+1) // reset for the next round
	}
}

// TestCorruptImageFileIsRefused: a byte of a stored image flips in its slot
// file. Get refuses the checkpoint with ErrMissingBlock and never returns the
// flipped image.
func TestCorruptImageFileIsRefused(t *testing.T) {
	s := newTestStore(t)
	img := bytes.Repeat([]byte("starfish"), 2*DeltaBlockSize/8)
	if err := s.Put(1, 0, 1, img, nil); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(s.rankDir(1, 0), "ckpt-1.*"))
	if err != nil {
		t.Fatal(err)
	}
	var slot string
	for _, f := range files {
		if !strings.HasSuffix(f, ".meta") {
			slot = f
		}
	}
	b, err := os.ReadFile(slot)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-DeltaBlockSize/2] ^= 0x10 // inside the image's last block
	if err := os.WriteFile(slot, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get(1, 0, 1); !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("Get of a flipped image = %d bytes, %v; want ErrMissingBlock", len(got), err)
	}
}
