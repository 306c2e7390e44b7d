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
// same way for both writers of a slot — Put of a raw image, a Pipeline's
// record — so the table below runs the same rows over the disk store, the
// replicated memory store and Tiered, and whatever a caller learns about one
// backend holds for the others.

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
	for _, ext := range []string{"rec", "meta"} {
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
	f := slotFiles(s, app, rank, n)[0]
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
// later one its predecessor with its first two blocks rewritten — so a record
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
	// memory store keeps an image it once resolved, so only a record nobody
	// has read yet shows what a lost carrier does to a read.
	const app, rank, twin = wire.AppID(5), wire.Rank(0), wire.Rank(1)
	rows := []struct {
		name    string
		slots   []uint64 // written in this order
		records bool     // through a Pipeline, else raw images through Put
		// What GC at the newest slot must leave of the older records: those
		// the newest one names.
		named []uint64
	}{
		{name: "raw", slots: []uint64{1, 2}},
		{name: "chain", slots: []uint64{1, 2, 3, 4}, records: true, named: []uint64{1}},
		// The record after the gap carries every block again.
		{name: "rebased", slots: []uint64{1, 2, 3, 5, 6, 7}, records: true, named: []uint64{5}},
	}
	for bname, mk := range conformants {
		for _, row := range rows {
			t.Run(bname+"/"+row.name, func(t *testing.T) {
				be := mk(t)
				p := ckpt.NewPipeline(be.Backend, 0)
				imgs, twinImgs := epochs(len(row.slots), 22), epochs(len(row.slots), 23)
				image := func(n uint64) []byte { return imgs[slices.Index(row.slots, n)] }
				twinImage := func(n uint64) []byte { return twinImgs[slices.Index(row.slots, n)] }
				last := row.slots[len(row.slots)-1]
				for _, n := range row.slots {
					var err error
					if row.records {
						if err = p.Put(app, twin, n, twinImage(n), nil); err == nil {
							err = p.Put(app, rank, n, image(n), nil)
						}
					} else {
						err = be.Put(app, rank, n, image(n), nil)
					}
					if err != nil {
						t.Fatalf("put #%d: %v", n, err)
					}
				}

				// Get is the image whoever wrote the slot; GetEnvelope its
				// record, which carries the whole image when Put wrote it.
				recs := make(map[uint64]*ckpt.Record)
				for _, n := range row.slots {
					img, meta, err := be.Get(app, rank, n)
					if err != nil || !bytes.Equal(img, image(n)) || meta.Index != n {
						t.Fatalf("Get #%d: not the image put (err %v)", n, err)
					}
					env, err := be.GetEnvelope(app, rank, n)
					rec, derr := ckpt.DecodeRecord(env)
					if err != nil || derr != nil || rec.Slot != n {
						t.Fatalf("GetEnvelope #%d: not slot #%d's record: %v, %v", n, n, err, derr)
					}
					if whole, ok := rec.Image(); !row.records && (!ok || !bytes.Equal(whole, image(n))) {
						t.Fatalf("the record Put stored in slot #%d does not carry the image", n)
					}
					recs[n] = rec
				}
				if _, _, err := be.Get(app, rank, last+1); !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Get of a slot never put = %v, want ErrNoCheckpoint", err)
				}
				if got, err := be.List(app, rank); err != nil || !slices.Equal(got, row.slots) {
					t.Fatalf("List = %v, %v; want %v", got, err, row.slots)
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

				// GC at the newest slot lists only it, and keeps of the older
				// records exactly those it names.
				if err := p.GC(app, rank, last); err != nil {
					t.Fatal(err)
				}
				be.settle()
				if got, err := be.List(app, rank); err != nil || !slices.Equal(got, []uint64{last}) {
					t.Fatalf("List after GC at #%d = %v, %v; want [%d]", last, got, err, last)
				}
				if img, _, err := be.Get(app, rank, last); err != nil || !bytes.Equal(img, image(last)) {
					t.Fatalf("Get #%d after GC: %v", last, err)
				}
				if !slices.Equal(recs[last].Names, row.named) {
					t.Fatalf("the newest record names %v, want %v", recs[last].Names, row.named)
				}
				for _, n := range row.slots[:len(row.slots)-1] {
					if _, _, err := be.Get(app, rank, n); !errors.Is(err, ckpt.ErrNoCheckpoint) {
						t.Fatalf("Get of collected slot #%d = %v, want ErrNoCheckpoint", n, err)
					}
					named := slices.Contains(row.named, n)
					if _, err := be.GetEnvelope(app, rank, n); named != (err == nil) {
						t.Fatalf("record #%d named by the survivor: %v, still stored: %v", n, named, err)
					}
				}
				if !row.records {
					return
				}

				// A record whose carrier is gone says so, and says it the way
				// a restart understands; what does not need the carrier still
				// restores.
				env, err := be.GetEnvelope(app, twin, last-1)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := ckpt.DecodeRecord(env)
				if err != nil || len(rec.Names) == 0 {
					t.Fatalf("twin slot #%d names no carrier: %v", last-1, err)
				}
				gone := rec.Names[0]
				be.remove(app, twin, gone)
				_, _, err = be.Get(app, twin, last-1)
				if !errors.Is(err, ckpt.ErrMissingBlock) || !errors.Is(err, ckpt.ErrNoCheckpoint) {
					t.Fatalf("Get #%d with carrier #%d removed = %v, want ErrMissingBlock", last-1, gone, err)
				}
				for _, n := range row.slots {
					if n >= gone {
						break
					}
					if img, _, err := be.Get(app, twin, n); err != nil || !bytes.Equal(img, twinImage(n)) {
						t.Fatalf("Get #%d, older than the removed carrier: %v", n, err)
					}
				}
			})
		}
	}

	for bname, mk := range conformants {
		// Every way a record can fail to resolve is an error a restart
		// understands, and never an image.
		t.Run(bname+"/errors", func(t *testing.T) {
			be := mk(t)
			p := ckpt.NewPipeline(be.Backend, 0)
			imgs := epochs(6, 25) // an image's record, then five carry lists
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

			// GC keeps a record a survivor names, collected; one that is
			// gone anyway leaves the survivor unresolvable.
			if err := be.GC(app, 2, 3); err != nil {
				t.Fatal(err)
			}
			be.settle()
			refused(2, 1, ckpt.ErrNoCheckpoint)
			if _, err := be.GetEnvelope(app, 2, 1); err != nil {
				t.Fatalf("a record a survivor names was not kept: %v", err)
			}
			if _, err := be.GetEnvelope(app, 2, 2); !errors.Is(err, ckpt.ErrNoCheckpoint) {
				t.Fatalf("a record no survivor names was kept: %v", err)
			}
			be.remove(app, 2, 1)
			refused(2, 3, ckpt.ErrMissingBlock)
		})
	}
}

// TestTieredRestoresFromEitherTier: what the fast tier lost comes off disk,
// whether it lost everything — a memory wipe — or only the newest slot.
func TestTieredRestoresFromEitherTier(t *testing.T) {
	const app, rank, newest = wire.AppID(6), wire.Rank(0), 3 // an image's record + 2 carry lists
	imgs := epochs(newest, 24)
	write := func(t *testing.T) ([]*rstore.Store, *ckpt.Store) {
		stores, disk := memStores(t, 2), diskStore(t)
		tiered := ckpt.NewTiered(stores[0], disk, t.Logf)
		defer tiered.Close()
		p := ckpt.NewPipeline(tiered, 0)
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
		if rec, derr := ckpt.DecodeRecord(env); err != nil || derr != nil || len(rec.Names) == 0 {
			t.Fatalf("the newest slot is not a carry list naming earlier slots: %v, %v", err, derr)
		}
		img, meta, err := tiered.Get(app, rank, newest)
		if err != nil || !bytes.Equal(img, imgs[newest-1]) || meta.Index != newest {
			t.Fatalf("restore of the newest epoch: %v", err)
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
			t.Fatal("the fast tier should hold the slot the newest names and not the newest")
		}
		restore(t, stores[0], disk)
	})
}
