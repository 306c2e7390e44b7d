package rstore

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// TestHolderOrderProperties checks rendezvous placement as properties over
// seeded draws of member sets (2…16 nodes), replication factors (1…3) and
// keys.
func TestHolderOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for draw := 0; draw < 1200; draw++ {
		n, k := 2+rng.Intn(15), 1+rng.Intn(3)
		members := make([]wire.NodeID, 0, n)
		for _, id := range rng.Perm(64)[:n] {
			members = append(members, wire.NodeID(id+1))
		}
		app, rank := wire.AppID(rng.Uint32()), wire.Rank(rng.Intn(1024))
		order := HolderOrder(app, rank, members)

		// A permutation of the members: the first min(k, n) are k distinct
		// holders.
		sorted := slices.Clone(order)
		slices.Sort(sorted)
		want := slices.Clone(members)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Fatalf("draw %d: order %v is not a permutation of %v", draw, order, members)
		}

		// Every node computes the same order, however its view is listed.
		shuffled := slices.Clone(members)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := HolderOrder(app, rank, shuffled); !slices.Equal(got, order) {
			t.Fatalf("draw %d: order depends on how members are listed: %v vs %v", draw, got, order)
		}

		// Removing a member leaves the others' order untouched, so a holder
		// set that did not contain it does not change, and one that did
		// changes by one substitution at its tail.
		gone := members[rng.Intn(n)]
		survivors := slices.DeleteFunc(slices.Clone(members), func(m wire.NodeID) bool { return m == gone })
		after := HolderOrder(app, rank, survivors)
		if want := slices.DeleteFunc(slices.Clone(order), func(m wire.NodeID) bool { return m == gone }); !slices.Equal(after, want) {
			t.Fatalf("draw %d: removing %d reordered the survivors: %v, want %v", draw, gone, after, want)
		}
		holders, holdersAfter := order[:min(k, n)], after[:min(k, n-1)]
		if !slices.Contains(holders, gone) {
			if !slices.Equal(holdersAfter, holders[:len(holdersAfter)]) {
				t.Fatalf("draw %d: removing non-holder %d changed holders %v to %v", draw, gone, holders, holdersAfter)
			}
		} else if kept := slices.DeleteFunc(slices.Clone(holders), func(m wire.NodeID) bool { return m == gone }); !slices.Equal(holdersAfter[:len(kept)], kept) {
			t.Fatalf("draw %d: removing holder %d changed holders %v to %v, want the rest kept in front", draw, gone, holders, holdersAfter)
		}

		// 256 keys spread over the members within 2x of even.
		load := make(map[wire.NodeID]int, n)
		for key := 0; key < 256; key++ {
			for _, h := range HolderOrder(app, wire.Rank(key), members)[:min(k, n)] {
				load[h]++
			}
		}
		even := float64(256*min(k, n)) / float64(n)
		for _, m := range members {
			if float64(load[m]) > 2*even {
				t.Fatalf("draw %d: node %d holds %d of 256 keys (k=%d over %d nodes), even is %.1f", draw, m, load[m], k, n, even)
			}
		}
	}
}

// copiesOf counts the live stores holding (app, rank, n).
func copiesOf(stores map[wire.NodeID]*Store, live []wire.NodeID, app wire.AppID, rank wire.Rank, n uint64) int {
	copies := 0
	for _, id := range live {
		if stores[id].Holds(app, rank, n) {
			copies++
		}
	}
	return copies
}

// TestDeathMovesOnlyLostCopies removes one of four members and requires the
// survivors to push exactly the copies it took — of the slots a restart can
// still need — and nothing else: no slot that kept its copies moves, no image
// older than the committed line moves, no two nodes push the same slot.
func TestDeathMovesOnlyLostCopies(t *testing.T) {
	// death kills victim and returns, once the survivors' passes ran out, the
	// slot pushes they made and the ones a "have" answer spared.
	death := func(t *testing.T, fn *vni.Fastnet, stores map[wire.NodeID]*Store, victim wire.NodeID) (live []wire.NodeID, pushed, skipped uint64) {
		t.Helper()
		var before uint64
		for id, s := range stores {
			if id != victim {
				live = append(live, id)
				before += s.Stats().Pushes
			}
		}
		fn.Crash(addr(victim))
		stores[victim].Close()
		for _, id := range live {
			stores[id].UpdateView(live)
		}
		for _, id := range live {
			stores[id].bg.Wait()
		}
		for _, id := range live {
			st := stores[id].Stats()
			pushed += st.Pushes
			skipped += st.PushesSkipped
			if st.UnderReplicated != 0 || st.PushFailures != 0 {
				t.Errorf("victim %d: node %d reports %d under-replicated, %d failed pushes", victim, id, st.UnderReplicated, st.PushFailures)
			}
		}
		return live, pushed - before, skipped
	}

	t.Run("images", func(t *testing.T) {
		for victim := wire.NodeID(1); victim <= 4; victim++ {
			fn := vni.NewFastnet(0)
			stores := newCluster(t, fn, 4, 2)
			// Three ranks written on three different nodes, two indices each,
			// the line committed at the second.
			const app = 11
			img := bytes.Repeat([]byte{0xC3}, 32<<10)
			for r := wire.Rank(0); r < 3; r++ {
				for n := uint64(1); n <= 2; n++ {
					if err := stores[wire.NodeID(r+1)].Put(app, r, n, img, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := stores[1].CommitLine(app, ckpt.RecoveryLine{0: 2, 1: 2, 2: 2}); err != nil {
				t.Fatal(err)
			}
			lost := 0
			for r := wire.Rank(0); r < 3; r++ {
				if stores[victim].Holds(app, r, 2) {
					lost++
				}
			}
			live, pushed, skipped := death(t, fn, stores, victim)
			if pushed != uint64(lost) {
				t.Errorf("victim %d took %d needed copies, re-replication pushed %d (skipped %d)", victim, lost, pushed, skipped)
			}
			for r := wire.Rank(0); r < 3; r++ {
				if c := copiesOf(stores, live, app, r, 2); c != 2 {
					t.Errorf("victim %d: rank %d's committed image has %d live copies, want 2", victim, r, c)
				}
			}
		}
	})

	// A delta chain at three copies loses its writer: the pusher role moves to
	// a holder with no recorded acks, while the other holder already has every
	// slot. Every record of the live chain stays owed below the committed line,
	// so each of them lost one copy — and only that one moves.
	t.Run("delta-chain", func(t *testing.T) {
		fn := vni.NewFastnet(0)
		stores := newCluster(t, fn, 4, 3)
		const app, writer, chain = 12, wire.NodeID(1), 4
		p := ckpt.NewPipeline(stores[writer], chain)
		imgs := chunkEpochs(chain, 16)
		for i, img := range imgs {
			if err := p.Put(app, 0, uint64(i+1), img, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := stores[writer].CommitLine(app, ckpt.RecoveryLine{0: chain}); err != nil {
			t.Fatal(err)
		}
		live, pushed, skipped := death(t, fn, stores, writer)
		if pushed != chain || skipped == 0 {
			t.Errorf("the writer took one copy of each of %d records, re-replication pushed %d (skipped %d)", chain, pushed, skipped)
		}
		for n := uint64(1); n <= chain; n++ {
			if c := copiesOf(stores, live, app, 0, n); c != 3 {
				t.Errorf("record #%d has %d live copies, want 3", n, c)
			}
		}
		for _, id := range live {
			if got, _, err := stores[id].Get(app, 0, chain); err != nil || !bytes.Equal(got, imgs[chain-1]) {
				t.Errorf("node %d cannot restore the chain's newest epoch: %v", id, err)
			}
		}
	})
}

// TestHaveAnswersForTheBytes pins what "have" means: a holder of an earlier
// incarnation's checkpoint of the same index must be sent the new bytes.
func TestHaveAnswersForTheBytes(t *testing.T) {
	for slot, put := range slotKinds {
		t.Run(slot, func(t *testing.T) {
			fn := vni.NewFastnet(0)
			stores := newCluster(t, fn, 3, 2)
			k := key{app: 12, rank: 0, n: 1}
			tagOf := func() uint64 {
				stores[1].mu.Lock()
				defer stores[1].mu.Unlock()
				return stores[1].images[k].tag
			}
			if err := put(stores[1], k.app, k.n, bytes.Repeat([]byte("first incarnation"), 500)); err != nil {
				t.Fatal(err)
			}
			var holder wire.NodeID
			for _, id := range []wire.NodeID{2, 3} {
				if stores[id].Holds(k.app, k.rank, k.n) {
					holder = id
				}
			}
			tag := tagOf()
			if !stores[1].peerHas(holder, k, tag) {
				t.Fatal("the holder of a pushed slot does not report having it")
			}
			if stores[1].peerHas(holder, k, tag+1) {
				t.Fatal("a holder reports having bytes of a put it never saw")
			}
			if stores[1].peerHas(5-holder, k, tag) {
				t.Fatal("a node that holds nothing reports having the slot")
			}
			if got := stores[1].Stats().PushesSkipped; got != 1 {
				t.Fatalf("PushesSkipped = %d, want 1", got)
			}
			// A new incarnation puts the same index again: the holder now has
			// those bytes, and no longer the first incarnation's.
			if err := put(stores[1], k.app, k.n, bytes.Repeat([]byte("second incarnation"), 500)); err != nil {
				t.Fatal(err)
			}
			if next := tagOf(); next == tag || !stores[1].peerHas(holder, k, next) {
				t.Fatal("the holder does not report having the second incarnation's bytes")
			}
			if stores[1].peerHas(holder, k, tag) {
				t.Fatal("a holder reports having the bytes a later put replaced")
			}
		})
	}
}

// TestReReplicateChainToFreshMember: the holder of a collected chain's copies
// dies and the new holder has none of it. Re-replication must leave it the
// live chain and every collected record the chain's carry list names — the
// carry list installs only once those are there — so that it restores the
// newest epoch alone.
func TestReReplicateChainToFreshMember(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	const app, writer = 14, wire.NodeID(1)
	var holder, fresh wire.NodeID
	for _, id := range HolderOrder(app, 0, []wire.NodeID{1, 2, 3}) {
		switch {
		case id == writer:
		case holder == 0:
			holder = id
		default:
			fresh = id
		}
	}
	p := ckpt.NewPipeline(stores[writer], 4)
	imgs := chunkEpochs(6, 16) // full, 3 deltas, a carry list, a delta
	for n, img := range imgs {
		if err := p.Put(app, 0, uint64(n+1), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := stores[writer].CommitLine(app, ckpt.RecoveryLine{0: 6}); err != nil {
		t.Fatal(err)
	}
	if err := p.GC(app, 0, 6); err != nil {
		t.Fatal(err)
	}
	env, err := stores[writer].GetEnvelope(app, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	carry, err := ckpt.DecodeRecord(env)
	if err != nil || carry.Kind != ckpt.RecFull || len(carry.Names) == 0 {
		t.Fatalf("slot #5 is no carry list naming earlier slots: %v", err)
	}
	if stores[fresh].Holds(app, 0, 5) {
		t.Fatal("the fresh member already holds the chain")
	}

	fn.Crash(addr(holder))
	stores[holder].Close()
	live := []wire.NodeID{writer, fresh}
	for _, id := range live {
		stores[id].UpdateView(live)
	}
	for _, id := range live {
		stores[id].bg.Wait()
	}
	for _, n := range append([]uint64{5, 6}, carry.Names...) {
		if !stores[fresh].Holds(app, 0, n) {
			t.Errorf("after re-replication the fresh member lacks slot #%d", n)
		}
	}
	if st := stores[writer].Stats(); st.UnderReplicated != 0 || st.PushFailures != 0 {
		t.Errorf("writer reports %d under-replicated, %d failed pushes", st.UnderReplicated, st.PushFailures)
	}
	for _, id := range live {
		if ns, _ := stores[id].List(app, 0); !slices.Equal(ns, []uint64{5, 6}) {
			t.Errorf("node %d lists %v after re-replication, want the live chain [5 6]", id, ns)
		}
	}
	// The fresh member alone restores the newest epoch.
	fn.Crash(addr(writer))
	stores[writer].Close()
	stores[fresh].UpdateView([]wire.NodeID{fresh})
	if got, _, err := stores[fresh].Get(app, 0, 6); err != nil || !bytes.Equal(got, imgs[5]) {
		t.Fatalf("the fresh member cannot restore the newest epoch: %v", err)
	}
	if _, _, err := stores[fresh].Get(app, 0, carry.Names[0]); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("a collected record restores: %v", err)
	}
}
