package rstore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"starfish/internal/vni"
	"starfish/internal/wire"
)

// ownedImages returns n distinct random images of size bytes: over 32 KiB,
// so their records sit in page-class pool buffers, which come back LIFO.
func ownedImages(rng *rand.Rand, n, size int) [][]byte {
	imgs := make([][]byte, n)
	for i := range imgs {
		imgs[i] = make([]byte, size)
		rng.Read(imgs[i])
	}
	return imgs
}

// slotBytes is what s holds in slot k (nil if nothing), read under s.mu.
func slotBytes(s *Store, k key) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.images[k]; ok {
		return e.img
	}
	return nil
}

// TestLentSlotsAreNeverReleased: a slot whose bytes a Get, a GetEnvelope, a
// peer fetch or a re-replication push let out is dropped, never given back to
// wire.Pool, when it is collected: its bytes stay what they were while later
// records reuse the pool's buffers. A slot nobody lent is given back (the
// pool's guard poisons it, or a later record overwrites it), which is what
// the first half would see if a lent slot were.
func TestLentSlotsAreNeverReleased(t *testing.T) {
	if !wire.PoolGuardEnabled() {
		t.Fatal("guard mode should be on under go test")
	}
	for _, how := range []string{"get", "envelope", "peer fetch", "re-replication"} {
		t.Run(how, func(t *testing.T) {
			stores := newCluster(t, vni.NewFastnet(0), 3, 2)
			const app = 11
			members := []wire.NodeID{1, 2, 3}
			writer := stores[1]
			var holder, outsider wire.NodeID
			for _, n := range HolderOrder(app, 0, members) {
				if n == 1 {
					continue
				}
				if holder == 0 {
					holder = n
				} else {
					outsider = n
				}
			}
			rng := rand.New(rand.NewSource(int64(len(how))))
			imgs := ownedImages(rng, 8, 100<<10)
			for n := uint64(1); n <= 2; n++ {
				if err := writer.Put(app, 0, n, imgs[n-1], nil); err != nil {
					t.Fatal(err)
				}
			}
			k := key{app, 0, 1}
			var lent [][]byte // what was let out, as the reader holds it
			switch how {
			case "get":
				img, _, err := writer.Get(app, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				lent = append(lent, img)
			case "envelope":
				for _, id := range []wire.NodeID{1, holder} {
					env, err := stores[id].GetEnvelope(app, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					lent = append(lent, env)
				}
			case "peer fetch":
				img, _, err := stores[outsider].Get(app, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				// The fetcher's copy and the slot the server sent from: the
				// first node of the key's order that holds it.
				var server wire.NodeID
				for _, n := range HolderOrder(app, 0, members) {
					if n != outsider {
						server = n
						break
					}
				}
				lent = append(lent, img, slotBytes(stores[server], k))
			case "re-replication":
				// Without the holder, the writer pushes slot 1 to the outsider
				// from a snapshot.
				lent = append(lent, slotBytes(writer, k))
				writer.UpdateView([]wire.NodeID{1, outsider})
				writer.bg.Wait()
				if !stores[outsider].Holds(app, 0, 1) {
					t.Fatal("re-replication did not push slot 1")
				}
				writer.UpdateView(members)
				writer.bg.Wait()
			}
			want := make([][]byte, len(lent))
			for i, b := range lent {
				want[i] = bytes.Clone(b)
			}
			// The holder's slot 2, which nobody read, is the control (the
			// writer's went out with the re-replication push).
			control := slotBytes(stores[holder], key{app, 0, 2})
			controlWant := bytes.Clone(control)
			for n := uint64(3); n <= 8; n++ {
				if err := writer.Put(app, 0, n, imgs[n-1], nil); err != nil {
					t.Fatal(err)
				}
				if err := writer.GC(app, 0, n); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range stores {
				if s.Holds(app, 0, 1) || s.Holds(app, 0, 2) {
					t.Fatal("slots 1 and 2 were not collected")
				}
			}
			for i := range lent {
				if !bytes.Equal(lent[i], want[i]) {
					t.Errorf("bytes let out by %s changed after their slot was collected", how)
				}
			}
			if bytes.Equal(control, controlWant) {
				t.Error("a slot nobody lent was not given back")
			}
		})
	}
}

// TestCollectedSlotsAreReused: the pages a collected record held are the
// pages a later record of its size is written into, on the writer and on the
// holder, and an image a Get returned before its slot went stays equal to
// what was put.
func TestCollectedSlotsAreReused(t *testing.T) {
	stores := newCluster(t, vni.NewFastnet(0), 2, 2)
	writer, holder := stores[1], stores[2]
	const app = 12
	imgs := ownedImages(rand.New(rand.NewSource(5)), 12, 200<<10)
	if err := writer.Put(app, 0, 1, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := writer.Get(app, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var released [][]byte
	reused := 0
	for n := uint64(2); n <= 12; n++ {
		if err := writer.Put(app, 0, n, imgs[n-1], nil); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{writer, holder} {
			b := slotBytes(s, key{app, 0, n})
			if slices.ContainsFunc(released, func(r []byte) bool { return sameBytes(r, b) }) {
				reused++
			}
		}
		if n > 2 {
			released = append(released, slotBytes(writer, key{app, 0, n - 1}), slotBytes(holder, key{app, 0, n - 1}))
		}
		if err := writer.GC(app, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	if reused == 0 {
		t.Error("no record was written into the pages a collected one gave back")
	}
	if !bytes.Equal(got, imgs[0]) {
		t.Error("a Get image changed after its slot was collected and the pool reused buffers")
	}
}

// TestWritersSlotIsKeptWhilePushed: the writer's own record is not given back
// while its push still reads it, even if its slot is collected meanwhile; the
// holder's copy is the record, whole.
func TestWritersSlotIsKeptWhilePushed(t *testing.T) {
	racing := &tamper{kind: kPutData}
	racing.Transport = vni.NewFastnet(0)
	racing.done.Store(true) // armed below
	stores := newCluster(t, racing, 2, 2)
	writer, holder := stores[1], stores[2]
	const app = 13
	img := ownedImages(rand.New(rand.NewSource(6)), 1, 300<<10)[0]
	racing.act = func(send func() error) error {
		writer.mu.Lock()
		if e := writer.images[key{app, 0, 1}]; e == nil || e.owned {
			t.Error("the writer's slot is owned while its push reads it")
		}
		writer.gcLocked(app, 0, 2) // collect it under the push
		writer.mu.Unlock()
		return send()
	}
	racing.done.Store(false)
	if err := writer.Put(app, 0, 1, img, nil); err != nil {
		t.Fatal(err)
	}
	if writer.Holds(app, 0, 1) {
		t.Fatal("the slot was not collected under the push")
	}
	got, _, err := holder.Get(app, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("the holder's copy of a record collected under its push: %v (equal %v)", err, bytes.Equal(got, img))
	}
	// An uncontested put ends owned.
	if err := writer.Put(app, 0, 3, img, nil); err != nil {
		t.Fatal(err)
	}
	writer.mu.Lock()
	owned := writer.images[key{app, 0, 3}].owned
	writer.mu.Unlock()
	if !owned {
		t.Error("the writer's slot is not owned once its pushes returned")
	}
}
