package apps

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/rstore"
	"starfish/internal/wire"
)

// One contract, three backends. Every ckpt.Backend answers every method the
// same way for both shapes a slot comes in — a raw image, a record envelope
// naming blocks — so the table below runs the same rows over the disk store,
// the replicated memory store and Tiered, and whatever a caller learns about
// one backend holds for the others.

// conformant is one backend under test with the two things the contract does
// not cover: how a test makes a slot vanish behind the backend's back, and how
// it waits for work the backend does in the background.
type conformant struct {
	ckpt.Backend
	remove func(app wire.AppID, rank wire.Rank, n uint64)
	settle func()
}

// removeFiles deletes slot n's two files from a disk store's layout.
func removeFiles(t *testing.T, s *ckpt.Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	dir := filepath.Join(s.Dir(), fmt.Sprintf("app-%d", app), fmt.Sprintf("rank-%d", rank))
	for _, ext := range []string{"img", "meta"} {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%d.%s", n, ext))); err != nil {
			t.Fatal(err)
		}
	}
}

// evictAll drops slot n from every store's RAM (the index keeps listing it).
func evictAll(stores []*rstore.Store, app wire.AppID, rank wire.Rank, n uint64) {
	for _, s := range stores {
		s.Evict(app, rank, n)
	}
}

var conformants = map[string]func(t *testing.T) conformant{
	"disk": func(t *testing.T) conformant {
		s := diskStore(t)
		return conformant{s, func(app wire.AppID, rank wire.Rank, n uint64) { removeFiles(t, s, app, rank, n) }, func() {}}
	},
	"memory": func(t *testing.T) conformant {
		stores := memStores(t, 2)
		return conformant{stores[0], func(app wire.AppID, rank wire.Rank, n uint64) { evictAll(stores, app, rank, n) }, func() {}}
	},
	"tiered": func(t *testing.T) conformant {
		stores, disk := memStores(t, 2), diskStore(t)
		tiered := ckpt.NewTiered(stores[0], disk, t.Logf)
		t.Cleanup(tiered.Close)
		return conformant{tiered, func(app wire.AppID, rank wire.Rank, n uint64) {
			tiered.Flush()
			evictAll(stores, app, rank, n)
			removeFiles(t, disk, app, rank, n)
		}, tiered.Flush}
	},
}

// epochs builds n checkpoint images of 16 blocks: a random first one, each
// later one its predecessor with two blocks rewritten.
func epochs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([][]byte, n)
	imgs[0] = make([]byte, 16*ckpt.DeltaBlockSize)
	rng.Read(imgs[0])
	for e := 1; e < n; e++ {
		imgs[e] = bytes.Clone(imgs[e-1])
		for i := 0; i < 2; i++ {
			b := rng.Intn(16)
			rng.Read(imgs[e][b*ckpt.DeltaBlockSize : (b+1)*ckpt.DeltaBlockSize])
		}
	}
	return imgs
}

func TestBackendConformance(t *testing.T) {
	// twin is a second rank written like the first and then left alone: the
	// memory store keeps an image it once resolved, so only a chain nobody
	// has read yet shows what a lost link does to a read.
	const app, rank, twin, fullEvery = wire.AppID(5), wire.Rank(0), wire.Rank(1), 4
	rows := []struct {
		name    string
		slots   int  // written as slots 1..slots
		records bool // through a Pipeline, else raw images through Put
		// What GC at the newest slot, through the Pipeline, must leave: a
		// delta clamps the collection to its chain's full base.
		kept uint64
	}{
		{name: "raw", slots: 2, kept: 2},
		{name: "chain", slots: 4, records: true, kept: 1},   // full + 3 deltas
		{name: "rebased", slots: 7, records: true, kept: 5}, // full + 3, full + 2
	}
	for bname, mk := range conformants {
		for _, row := range rows {
			t.Run(bname+"/"+row.name, func(t *testing.T) {
				be := mk(t)
				p := ckpt.NewPipeline(be.Backend, fullEvery)
				imgs, twinImgs := epochs(row.slots, 22), epochs(row.slots, 23)
				image := func(n uint64) []byte { return imgs[n-1] }
				last := uint64(row.slots)
				var want []uint64
				for n := uint64(1); n <= last; n++ {
					var err error
					if row.records {
						if err = p.Put(app, twin, n, twinImgs[n-1], nil); err == nil {
							err = p.Put(app, rank, n, image(n), nil)
						}
					} else {
						err = be.Put(app, rank, n, image(n), nil)
					}
					if err != nil {
						t.Fatalf("put #%d: %v", n, err)
					}
					want = append(want, n)
				}

				// Get is the image, GetEnvelope the stored bytes, whichever
				// shape the slot has.
				envs := make(map[uint64][]byte)
				for n := uint64(1); n <= last; n++ {
					img, meta, err := be.Get(app, rank, n)
					if err != nil || !bytes.Equal(img, image(n)) || meta.Index != n {
						t.Fatalf("Get #%d: not the image put (err %v)", n, err)
					}
					env, meta, err := be.GetEnvelope(app, rank, n)
					if err != nil || meta.Index != n {
						t.Fatalf("GetEnvelope #%d: %v", n, err)
					}
					if ckpt.IsRecord(env) != row.records {
						t.Fatalf("GetEnvelope #%d: IsRecord = %v, want %v", n, !row.records, row.records)
					}
					if !row.records && !bytes.Equal(env, image(n)) {
						t.Fatalf("GetEnvelope #%d: a raw slot's stored bytes are not its image", n)
					}
					envs[n] = env
				}
				if _, _, err := be.Get(app, rank, last+1); !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Get of a slot never put = %v, want ErrNoCheckpoint", err)
				}
				if got, err := be.List(app, rank); err != nil || !slices.Equal(got, want) {
					t.Fatalf("List = %v, %v; want %v", got, err, want)
				}
				ranks := []wire.Rank{rank}
				if row.records {
					ranks = append(ranks, twin)
				}
				if got, err := be.Ranks(app); err != nil || !slices.Equal(got, ranks) {
					t.Fatalf("Ranks = %v, %v; want %v", got, err, ranks)
				}
				if _, err := be.CommittedLine(app); !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("CommittedLine before any commit = %v, want ErrNoCheckpoint", err)
				}
				if err := be.CommitLine(app, ckpt.RecoveryLine{rank: last}); err != nil {
					t.Fatal(err)
				}
				if line, err := be.CommittedLine(app); err != nil || len(line) != 1 || line[rank] != last {
					t.Fatalf("CommittedLine = %v, %v", line, err)
				}

				// GC at the newest slot keeps its chain and sweeps what only
				// the collected slots named.
				if err := p.GC(app, rank, last); err != nil {
					t.Fatal(err)
				}
				be.settle()
				want = want[row.kept-1:]
				if got, err := be.List(app, rank); err != nil || !slices.Equal(got, want) {
					t.Fatalf("List after GC at #%d = %v, %v; want %v", last, got, err, want)
				}
				for _, n := range want {
					if img, _, err := be.Get(app, rank, n); err != nil || !bytes.Equal(img, image(n)) {
						t.Fatalf("Get #%d after GC: %v", n, err)
					}
				}
				if row.kept > 1 {
					if _, _, err := be.Get(app, rank, row.kept-1); !errors.Is(err, ckpt.ErrNoCheckpoint) {
						t.Fatalf("Get of a collected slot = %v, want ErrNoCheckpoint", err)
					}
				}
				live := make(map[ckpt.BlockID]bool)
				for _, n := range want {
					refs, _ := ckpt.RecordRefs(envs[n])
					for _, r := range refs {
						live[r.ID] = true
					}
				}
				swept := 0
				for n := uint64(1); row.records && n < row.kept; n++ {
					refs, err := ckpt.RecordRefs(envs[n])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range refs {
						if live[r.ID] {
							continue
						}
						swept++
						if _, err := be.GetBlock(app, rank, r); !errors.Is(err, ckpt.ErrMissingBlock) {
							t.Fatalf("GetBlock of a block only collected slot #%d named = %v, want ErrMissingBlock", n, err)
						}
					}
				}
				if row.name == "rebased" && swept == 0 {
					t.Fatal("the collected chain named no block of its own; the sweep was not exercised")
				}
				if !row.records {
					return
				}

				// A chain that lost its base slot says so, and says it the
				// way a restart understands.
				be.remove(app, twin, row.kept)
				_, _, err := be.Get(app, twin, last-1)
				if !errors.Is(err, ckpt.ErrBrokenChain) || !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Get #%d with base #%d removed = %v, want ErrBrokenChain", last-1, row.kept, err)
				}
				if row.kept > 1 {
					if img, _, err := be.Get(app, twin, row.kept-1); err != nil || !bytes.Equal(img, twinImgs[row.kept-2]) {
						t.Fatalf("Get #%d, of the chain before the broken one: %v", row.kept-1, err)
					}
				}
			})
		}
	}
}

// TestTieredRestoresFromEitherTier: what the fast tier lost comes off disk,
// whole — a memory wipe — or piecemeal — one slot evicted, so the chain walk
// takes each envelope and block from the tier that still has it.
func TestTieredRestoresFromEitherTier(t *testing.T) {
	const app, rank, newest = wire.AppID(6), wire.Rank(0), 3 // full + 2 deltas
	imgs := epochs(newest, 24)
	write := func(t *testing.T) ([]*rstore.Store, *ckpt.Store) {
		stores, disk := memStores(t, 2), diskStore(t)
		tiered := ckpt.NewTiered(stores[0], disk, t.Logf)
		defer tiered.Close()
		p := ckpt.NewPipeline(tiered, 4)
		for n, img := range imgs {
			if err := p.Put(app, rank, uint64(n+1), img, nil); err != nil {
				t.Fatal(err)
			}
		}
		tiered.Flush()
		return stores, disk
	}
	restore := func(t *testing.T, fast *rstore.Store, disk *ckpt.Store) {
		tiered := ckpt.NewTiered(fast, disk, t.Logf)
		defer tiered.Close()
		env, _, err := tiered.GetEnvelope(app, rank, newest)
		if rec, derr := ckpt.DecodeRecord(env); err != nil || derr != nil || rec.Kind != ckpt.RecDelta {
			t.Fatalf("the newest slot is not a delta record: %v, %v", err, derr)
		}
		img, meta, err := tiered.Get(app, rank, newest)
		if err != nil || !bytes.Equal(img, imgs[newest-1]) || meta.Index != newest {
			t.Fatalf("restore of the newest delta epoch: %v", err)
		}
	}
	t.Run("fast tier wiped", func(t *testing.T) {
		_, disk := write(t)
		restore(t, memStores(t, 2)[0], disk)
	})
	t.Run("newest slot evicted", func(t *testing.T) {
		stores, disk := write(t)
		evictAll(stores, app, rank, newest)
		if stores[0].Holds(app, rank, newest) || !stores[0].Holds(app, rank, 1) {
			t.Fatal("the fast tier should hold the chain's base and not its newest slot")
		}
		restore(t, stores[0], disk)
	})
}
