package apps

import (
	"bytes"
	"encoding/binary"
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
// same way for both shapes a slot comes in — a raw image, a record — so the
// table below runs the same rows over the disk store, the replicated memory
// store and Tiered, and whatever a caller learns about one backend holds for
// the others.

// conformant is one backend under test with the three things the contract
// does not cover: how a test makes a slot vanish behind the backend's back,
// how it corrupts a stored record's last byte where a restore reads it from (a
// peer's RAM, a file), and how it waits for work the backend does in the
// background.
type conformant struct {
	ckpt.Backend
	remove  func(app wire.AppID, rank wire.Rank, n uint64)
	corrupt func(app wire.AppID, rank wire.Rank, n uint64)
	settle  func()
}

// slotFiles lists the files slot n may have in a disk store's layout.
func slotFiles(s *ckpt.Store, app wire.AppID, rank wire.Rank, n uint64) []string {
	dir := filepath.Join(s.Dir(), fmt.Sprintf("app-%d", app), fmt.Sprintf("rank-%d", rank))
	var out []string
	for _, ext := range []string{"img", "rec", "meta"} {
		out = append(out, filepath.Join(dir, fmt.Sprintf("ckpt-%d.%s", n, ext)))
	}
	return out
}

// removeFiles deletes slot n's files from a disk store's layout.
func removeFiles(t *testing.T, s *ckpt.Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	removed := 0
	for _, f := range slotFiles(s, app, rank, n) {
		if err := os.Remove(f); err == nil {
			removed++
		} else if !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
	}
	if removed == 0 {
		t.Fatalf("slot #%d has no files to remove", n)
	}
}

// corruptFile flips the last byte of slot n's record file.
func corruptFile(t *testing.T, s *ckpt.Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	f := slotFiles(s, app, rank, n)[1]
	b, err := os.ReadFile(f)
	if err == nil {
		b[len(b)-1] ^= 0xFF
		err = os.WriteFile(f, b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// corruptPeers flips the last byte of the record every store but the first
// holds for slot n, in place, and drops the first store's copy, so its next
// read of the slot comes from a peer.
func corruptPeers(t *testing.T, stores []*rstore.Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	for _, s := range stores[1:] {
		if !s.Holds(app, rank, n) {
			t.Fatalf("no peer copy of slot #%d to corrupt", n)
		}
		rec, err := s.GetEnvelope(app, rank, n)
		if err != nil {
			t.Fatal(err)
		}
		rec[len(rec)-1] ^= 0xFF // the store's own memory: what a bad DIMM does
	}
	stores[0].Evict(app, rank, n)
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
		return conformant{s,
			func(app wire.AppID, rank wire.Rank, n uint64) { removeFiles(t, s, app, rank, n) },
			func(app wire.AppID, rank wire.Rank, n uint64) { corruptFile(t, s, app, rank, n) },
			func() {}}
	},
	"memory": func(t *testing.T) conformant {
		stores := memStores(t, 2)
		return conformant{stores[0],
			func(app wire.AppID, rank wire.Rank, n uint64) { evictAll(stores, app, rank, n) },
			func(app wire.AppID, rank wire.Rank, n uint64) { corruptPeers(t, stores, app, rank, n) },
			func() {}}
	},
	"tiered": func(t *testing.T) conformant {
		stores, disk := memStores(t, 2), diskStore(t)
		tiered := ckpt.NewTiered(stores[0], disk, t.Logf)
		t.Cleanup(tiered.Close)
		return conformant{tiered,
			func(app wire.AppID, rank wire.Rank, n uint64) {
				tiered.Flush()
				evictAll(stores, app, rank, n)
				removeFiles(t, disk, app, rank, n)
			},
			func(app wire.AppID, rank wire.Rank, n uint64) {
				tiered.Flush()
				corruptPeers(t, stores, app, rank, n)
				corruptFile(t, disk, app, rank, n)
			},
			tiered.Flush}
	},
}

// epochs builds n checkpoint images of 16 blocks: a random first one, each
// later one its predecessor with its first two blocks rewritten — so a delta
// is wholly superseded by the next, and the first record carries the rest.
func epochs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([][]byte, n)
	imgs[0] = make([]byte, 16*ckpt.DeltaBlockSize)
	rng.Read(imgs[0])
	for e := 1; e < n; e++ {
		imgs[e] = bytes.Clone(imgs[e-1])
		rng.Read(imgs[e][:2*ckpt.DeltaBlockSize])
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

				// Get is the image whichever shape the slot has; GetEnvelope
				// the record, of a record slot only.
				recs := make(map[uint64]*ckpt.Record)
				for n := uint64(1); n <= last; n++ {
					img, meta, err := be.Get(app, rank, n)
					if err != nil || !bytes.Equal(img, image(n)) || meta.Index != n {
						t.Fatalf("Get #%d: not the image put (err %v)", n, err)
					}
					env, err := be.GetEnvelope(app, rank, n)
					if !row.records {
						if !errors.Is(err, ckpt.ErrNoCheckpoint) {
							t.Fatalf("GetEnvelope of raw slot #%d = %v, want ErrNoCheckpoint", n, err)
						}
						continue
					}
					rec, derr := ckpt.DecodeRecord(env)
					if err != nil || derr != nil || rec.Slot != n {
						t.Fatalf("GetEnvelope #%d: not slot #%d's record: %v, %v", n, n, err, derr)
					}
					recs[n] = rec
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

				// GC at the newest slot keeps its chain, and of the older
				// records exactly those a surviving one names.
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
				named := make(map[uint64]bool)
				for _, n := range want {
					if rec := recs[n]; rec != nil {
						for _, m := range rec.Names {
							named[m] = true
						}
					}
				}
				var kept, swept int
				for n := uint64(1); row.records && n < row.kept; n++ {
					_, err := be.GetEnvelope(app, rank, n)
					if named[n] != (err == nil) {
						t.Fatalf("record #%d named by a survivor: %v, still stored: %v", n, named[n], err)
					}
					if named[n] {
						kept++
					} else {
						swept++
					}
				}
				if row.name == "rebased" && (kept == 0 || swept == 0) {
					t.Fatalf("of the collected chain %d records were kept and %d swept; GC was not exercised both ways", kept, swept)
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

	for bname, mk := range conformants {
		// Raw or record is how a slot was stored, not what its bytes say:
		// an image that begins like a record is a raw image all the same.
		t.Run(bname+"/raw-lookalike", func(t *testing.T) {
			be := mk(t)
			img := append(binary.BigEndian.AppendUint32(nil, 0xC1A1D001), epochs(1, 26)[0]...)
			if err := be.Put(app, rank, 1, img, nil); err != nil {
				t.Fatal(err)
			}
			be.settle()
			if got, _, err := be.Get(app, rank, 1); err != nil || !bytes.Equal(got, img) {
				t.Fatalf("Get of a raw image that looks like a record: %v", err)
			}
			if _, err := be.GetEnvelope(app, rank, 1); !errors.Is(err, ckpt.ErrNoCheckpoint) {
				t.Fatalf("GetEnvelope of a raw image = %v, want ErrNoCheckpoint", err)
			}
		})

		// Every way a record can fail to resolve is an error a restart
		// understands, and never an image.
		t.Run(bname+"/errors", func(t *testing.T) {
			be := mk(t)
			p := ckpt.NewPipeline(be.Backend, fullEvery)
			imgs := epochs(6, 25) // full, 3 deltas, a carry list, a delta
			for r := wire.Rank(0); r < 3; r++ {
				for n, img := range imgs {
					if err := p.Put(app, r, uint64(n+1), img, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			be.settle()
			refused := func(r wire.Rank, n uint64, want error) {
				t.Helper()
				if img, _, err := be.Get(app, r, n); img != nil || !errors.Is(err, want) || !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Get #%d of rank %d = %d bytes, %v; want %v", n, r, len(img), err, want)
				}
			}

			// A carry list naming a slot no holder has.
			env, err := be.GetEnvelope(app, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			carry, err := ckpt.DecodeRecord(env)
			if err != nil || carry.Kind != ckpt.RecFull || len(carry.Names) == 0 {
				t.Fatalf("slot #5 is no carry list naming earlier slots: %v", err)
			}
			be.remove(app, 0, carry.Names[0])
			refused(0, 5, ckpt.ErrMissingBlock)

			// A block failing its crc32c where the restore reads it.
			be.corrupt(app, 1, 6)
			refused(1, 6, ckpt.ErrMissingBlock)

			// GC keeps a live chain's base, collected; a base that is
			// gone anyway breaks the chain.
			if err := be.GC(app, 2, 3); err != nil {
				t.Fatal(err)
			}
			be.settle()
			refused(2, 2, ckpt.ErrNoCheckpoint)
			if _, err := be.GetEnvelope(app, 2, 2); err != nil {
				t.Fatalf("the base of a surviving delta was not kept: %v", err)
			}
			be.remove(app, 2, 2)
			refused(2, 3, ckpt.ErrBrokenChain)
		})
	}
}

// TestTieredRestoresFromEitherTier: what the fast tier lost comes off disk,
// whether it lost everything — a memory wipe — or only the newest slot.
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
		env, err := tiered.GetEnvelope(app, rank, newest)
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
