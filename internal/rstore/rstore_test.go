package rstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/chaosnet"
	"starfish/internal/ckpt"
	"starfish/internal/leakcheck"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

func addr(id wire.NodeID) string { return fmt.Sprintf("rs-n%d", id) }

// newCluster builds n stores on one shared transport and installs the full
// membership on each.
func newCluster(t *testing.T, fn vni.Transport, n int, replicas int) map[wire.NodeID]*Store {
	t.Helper()
	stores := make(map[wire.NodeID]*Store, n)
	members := make([]wire.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		members = append(members, id)
		s, err := New(Config{
			Node:      id,
			Transport: fn,
			Addr:      addr(id),
			PeerAddr:  addr,
			Replicas:  replicas,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatalf("New(node %d): %v", id, err)
		}
		stores[id] = s
		t.Cleanup(func() { s.Close() })
	}
	for _, s := range stores {
		s.UpdateView(members)
	}
	// Let the passes the first view started run out: one that is still going
	// when a test Puts would push that image too, and byte counts would race.
	for _, s := range stores {
		s.bg.Wait()
	}
	return stores
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestPutGetLocal(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	s := stores[1]

	img := bytes.Repeat([]byte{0xAB}, 1024)
	meta := &ckpt.Meta{Rank: 0, Index: 3, SentCounts: map[wire.Rank]uint64{1: 7}}
	if err := s.Put(1, 0, 3, img, meta); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, gm, err := s.Get(1, 0, 3)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("image mismatch: %d bytes", len(got))
	}
	if gm.Index != 3 || gm.SentCounts[1] != 7 {
		t.Fatalf("meta mismatch: %+v", gm)
	}
	ns, err := s.List(1, 0)
	if err != nil || len(ns) != 1 || ns[0] != 3 {
		t.Fatalf("List = %v, %v", ns, err)
	}
	if _, _, err := s.Get(1, 0, 99); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Get missing = %v, want ErrNoCheckpoint", err)
	}
}

func TestReplicationToHolders(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	s := stores[1]

	if err := s.Put(7, 2, 1, []byte("state"), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The writer's copy is replica #1; the other went to the first member of
	// the key's order that is not the writer, and nowhere else.
	want := map[wire.NodeID]bool{1: true}
	for _, h := range HolderOrder(7, 2, []wire.NodeID{1, 2, 3}) {
		if h != 1 && len(want) < 2 {
			want[h] = true
		}
	}
	for id, st := range stores {
		if st.Holds(7, 2, 1) != want[id] {
			t.Fatalf("node %d holds a copy: %v, want %v", id, st.Holds(7, 2, 1), want[id])
		}
	}
	// The index reached every node, holder or not.
	for id, st := range stores {
		ns, err := st.List(7, 2)
		if err != nil || len(ns) != 1 || ns[0] != 1 {
			t.Fatalf("node %d List = %v, %v", id, ns, err)
		}
		rs, err := st.Ranks(7)
		if err != nil || len(rs) != 1 || rs[0] != 2 {
			t.Fatalf("node %d Ranks = %v, %v", id, rs, err)
		}
	}
}

func TestPeerFetchAfterWriterCrash(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	writer := stores[1]

	img := bytes.Repeat([]byte{0x5A}, 64<<10)
	if err := writer.Put(9, 0, 5, img, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := writer.CommitLine(9, ckpt.RecoveryLine{0: 5}); err != nil {
		t.Fatalf("CommitLine: %v", err)
	}

	// Kill the writer: sever its network and close its store.
	fn.Crash(addr(1))
	writer.Close()
	survivors := []wire.NodeID{2, 3}
	for _, id := range survivors {
		stores[id].UpdateView(survivors)
	}

	// Some survivor holds a replica; any survivor can read it, fetching from
	// a peer when it is not a local holder.
	for _, id := range survivors {
		got, meta, err := stores[id].Get(9, 0, 5)
		if err != nil {
			t.Fatalf("node %d Get after crash: %v", id, err)
		}
		if !bytes.Equal(got, img) || meta.Index != 5 {
			t.Fatalf("node %d got wrong image/meta", id)
		}
		line, err := stores[id].CommittedLine(9)
		if err != nil || line[0] != 5 {
			t.Fatalf("node %d CommittedLine = %v, %v", id, line, err)
		}
	}
}

func TestViewChangeReReplicates(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 4, 2)
	writer := stores[1]

	if err := writer.Put(3, 1, 2, bytes.Repeat([]byte{1}, 4096), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Crash the node holding the pushed replica so the image drops below k
	// copies.
	var victim wire.NodeID
	for id, st := range stores {
		if id != 1 && st.Holds(3, 1, 2) {
			victim = id
		}
	}
	if victim == 0 {
		t.Fatal("no replica outside the writer")
	}
	fn.Crash(addr(victim))
	stores[victim].Close()

	var next []wire.NodeID
	for id := range stores {
		if id != victim {
			next = append(next, id)
		}
	}
	for _, id := range next {
		stores[id].UpdateView(next)
	}

	// Re-replication restores k copies among survivors and the writer's
	// under-replication counter drains to zero.
	waitFor(t, "re-replication", func() bool {
		copies := 0
		for _, id := range next {
			if stores[id].Holds(3, 1, 2) {
				copies++
			}
		}
		return copies >= 2 && stores[1].Stats().UnderReplicated == 0
	})
}

// TestReReplicateAfterTwoViewChanges drives the store through two
// consecutive membership churns, each killing a replica holder. After each
// view change the surviving stores must restore every image to k live
// copies, and the data must still be fetchable — byte-identical — from a
// node that never held it.
func TestReReplicateAfterTwoViewChanges(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 5, 3)
	writer := stores[1]

	const k = 3
	images := map[wire.Rank][]byte{
		0: bytes.Repeat([]byte{0x11}, 8<<10),
		1: bytes.Repeat([]byte{0x22}, 8<<10),
		2: bytes.Repeat([]byte{0x33}, 8<<10),
	}
	for r, img := range images {
		if err := writer.Put(6, r, 1, img, nil); err != nil {
			t.Fatalf("Put rank %d: %v", r, err)
		}
	}

	live := []wire.NodeID{1, 2, 3, 4, 5}
	for round := 1; round <= 2; round++ {
		// Kill a non-writer node that holds at least one of the images, so
		// the churn actually drops a replica.
		var victim wire.NodeID
		for _, id := range live {
			if id == 1 {
				continue
			}
			for r := range images {
				if stores[id].Holds(6, r, 1) {
					victim = id
					break
				}
			}
			if victim != 0 {
				break
			}
		}
		if victim == 0 {
			t.Fatalf("round %d: no non-writer holder to crash among %v", round, live)
		}
		fn.Crash(addr(victim))
		stores[victim].Close()

		var next []wire.NodeID
		for _, id := range live {
			if id != victim {
				next = append(next, id)
			}
		}
		live = next
		for _, id := range live {
			stores[id].UpdateView(live)
		}

		waitFor(t, fmt.Sprintf("re-replication after view change %d", round), func() bool {
			for r := range images {
				copies := 0
				for _, id := range live {
					if stores[id].Holds(6, r, 1) {
						copies++
					}
				}
				if copies < k {
					return false
				}
			}
			return writer.Stats().UnderReplicated == 0
		})
	}

	// Data intact: every image reads back byte-identical on every survivor,
	// including nodes fetching from a peer rather than a local copy.
	for _, id := range live {
		for r, img := range images {
			got, _, err := stores[id].Get(6, r, 1)
			if err != nil {
				t.Fatalf("node %d Get rank %d: %v", id, r, err)
			}
			if !bytes.Equal(got, img) {
				t.Fatalf("node %d rank %d: image corrupted after churn", id, r)
			}
		}
	}
}

// TestRequestsSurviveLossyLinks runs replication and peer fetches over a
// chaosnet link that drops and duplicates messages. Tag-matched replies,
// request timeouts, and per-attempt restaging must together hide the loss:
// the Put succeeds, replicas appear, and a peer fetch returns intact bytes.
func TestRequestsSurviveLossyLinks(t *testing.T) {
	leakcheck.Check(t, 0)
	net := chaosnet.New(vni.NewFastnet(0), 0xC0FFEE, chaosnet.Config{})
	defer net.Controller().Close()
	net.Controller().SetDefaultFaults(chaosnet.Faults{Drop: 0.15, Dup: 0.1})

	stores := make(map[wire.NodeID]*Store, 3)
	members := []wire.NodeID{1, 2, 3}
	for _, id := range members {
		s, err := New(Config{
			Node:           id,
			Transport:      net.Node(addr(id)),
			Addr:           addr(id),
			PeerAddr:       addr,
			Replicas:       2,
			RequestTimeout: 150 * time.Millisecond,
			RequestRetries: 6,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("New(node %d): %v", id, err)
		}
		stores[id] = s
		t.Cleanup(func() { s.Close() })
	}
	for _, s := range stores {
		s.UpdateView(members)
	}

	img := bytes.Repeat([]byte{0x77}, 32<<10)
	if err := stores[1].Put(8, 0, 1, img, nil); err != nil {
		t.Fatalf("Put over lossy links: %v", err)
	}
	waitFor(t, "replication over lossy links", func() bool {
		copies := 0
		for _, id := range members {
			if stores[id].Holds(8, 0, 1) {
				copies++
			}
		}
		return copies >= 2
	})
	// Fetch from whichever node is not a holder (or re-fetch via Evict).
	var reader *Store
	for _, id := range members {
		if !stores[id].Holds(8, 0, 1) {
			reader = stores[id]
			break
		}
	}
	if reader == nil {
		reader = stores[2]
		reader.Evict(8, 0, 1)
	}
	got, _, err := reader.Get(8, 0, 1)
	if err != nil {
		t.Fatalf("Get over lossy links: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("peer fetch over lossy links returned corrupted image")
	}
	st := net.Controller().Stats()
	if st.Drops == 0 {
		t.Fatalf("chaosnet injected no drops (stats %+v); test exercised nothing", st)
	}
}

func TestGCAndDropPropagate(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 3)
	s := stores[1]

	for n := uint64(1); n <= 3; n++ {
		if err := s.Put(4, 0, n, []byte{byte(n)}, nil); err != nil {
			t.Fatalf("Put #%d: %v", n, err)
		}
	}
	if err := s.GC(4, 0, 3); err != nil {
		t.Fatalf("GC: %v", err)
	}
	for id, st := range stores {
		ns, _ := st.List(4, 0)
		if len(ns) != 1 || ns[0] != 3 {
			t.Fatalf("node %d after GC: List = %v", id, ns)
		}
		if st.Holds(4, 0, 1) || st.Holds(4, 0, 2) {
			t.Fatalf("node %d still holds collected images", id)
		}
	}
	if err := s.DropApp(4); err != nil {
		t.Fatalf("DropApp: %v", err)
	}
	for id, st := range stores {
		rs, _ := st.Ranks(4)
		if len(rs) != 0 {
			t.Fatalf("node %d after DropApp: Ranks = %v", id, rs)
		}
	}
}

func TestEvictRefetches(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	s := stores[1]

	img := bytes.Repeat([]byte{7}, 2048)
	if err := s.Put(5, 0, 1, img, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Evict(5, 0, 1)
	if s.Holds(5, 0, 1) {
		t.Fatal("Evict left the local copy")
	}
	got, _, err := s.Get(5, 0, 1)
	if err != nil {
		t.Fatalf("Get after evict: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("refetched image mismatch")
	}
	if s.Stats().PeerFetches == 0 {
		t.Fatal("expected a peer fetch")
	}
}

func TestStatsCounters(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	s := stores[1]

	if err := s.Put(2, 0, 1, []byte("abcd"), nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st := s.Stats()
	if st.Images != 1 || st.Bytes != int64(len(ckpt.RecordOf(1, nil, nil, nil, []byte("abcd")))) {
		t.Fatalf("Stats images/bytes = %d/%d", st.Images, st.Bytes)
	}
	if st.Members != 2 || st.Replicas != 2 {
		t.Fatalf("Stats members/replicas = %d/%d", st.Members, st.Replicas)
	}
	if st.Pushes == 0 {
		t.Fatalf("Stats pushes = 0, want > 0")
	}
	if st.UnderReplicated != 0 {
		t.Fatalf("Stats under-replicated = %d, want 0", st.UnderReplicated)
	}
	if s := st.String(); s == "" {
		t.Fatal("Stats.String empty")
	}
	// GatherLine works over the store as a Backend from any member.
	if err := s.Put(2, 1, 1, []byte("efgh"), nil); err != nil {
		t.Fatalf("Put rank 1: %v", err)
	}
	line, err := ckpt.GatherLine(stores[2], 2)
	if err != nil {
		t.Fatalf("GatherLine on peer: %v", err)
	}
	if line[0] != 1 || line[1] != 1 {
		t.Fatalf("GatherLine = %v", line)
	}
}

// tamper is a transport that hands the first frame of one kind sent through
// it to act, with the send that would deliver it: dropping or doubling the
// frame shows the receiver half of a two-frame pair.
type tamper struct {
	vni.Transport
	kind uint16
	act  func(send func() error) error
	done atomic.Bool
}

type tamperConn struct {
	vni.Conn
	t *tamper
}

type tamperListener struct {
	vni.Listener
	t *tamper
}

func (t *tamper) Dial(addr string) (vni.Conn, error) {
	c, err := t.Transport.Dial(addr)
	return tamperConn{c, t}, err
}

func (t *tamper) Listen(addr string) (vni.Listener, error) {
	l, err := t.Transport.Listen(addr)
	return tamperListener{l, t}, err
}

func (l tamperListener) Accept() (vni.Conn, error) {
	c, err := l.Listener.Accept()
	return tamperConn{c, l.t}, err
}

func (c tamperConn) Send(m *wire.Msg) error {
	if m.Kind == c.t.kind && c.t.done.CompareAndSwap(false, true) {
		return c.t.act(func() error { return c.Conn.Send(m) })
	}
	return c.Conn.Send(m)
}

// slotKinds are the two writers of a slot every push and fetch guard must hold
// for: put writes img into slot n of (app, rank 0) of s through that writer.
var slotKinds = map[string]func(s *Store, app wire.AppID, n uint64, img []byte) error{
	"image": func(s *Store, app wire.AppID, n uint64, img []byte) error {
		return s.Put(app, 0, n, img, nil)
	},
	"record": func(s *Store, app wire.AppID, n uint64, img []byte) error {
		return ckpt.NewPipeline(s, 0).Put(app, 0, n, img, nil)
	},
}

// TestHalfSeenPairsAreSentAgain: a peer that saw half of a two-frame pair —
// one frame lost, or one doubled — answers: "I did not get that" to a push, an
// orphan frame to a fetch. An answer is not a transport error, so exchange's
// retries do not cover it. The push must go again or the slot silently stays
// at one copy; the fetch must go again or a restart reads "no replica" off the
// only one.
func TestHalfSeenPairsAreSentAgain(t *testing.T) {
	faults := map[string]func(send func() error) error{
		"dropped": func(func() error) error { return nil },
		"doubled": func(send func() error) error {
			if err := send(); err != nil {
				return err
			}
			return send()
		},
	}
	for pair, kind := range map[string]uint16{"push": kPut, "fetch": kGetOK} {
		t.Run(pair, func(t *testing.T) {
			for slot, put := range slotKinds {
				for fault, act := range faults {
					t.Run(slot+"/"+fault, func(t *testing.T) {
						lossy := &tamper{Transport: vni.NewFastnet(0), kind: kind, act: act}
						stores := newCluster(t, lossy, 3, 2)
						img := bytes.Repeat([]byte{0x42}, 3*ckpt.DeltaBlockSize)
						if err := put(stores[1], 13, 1, img); err != nil {
							t.Fatal(err)
						}
						if st := stores[1].Stats(); st.PushFailures != 0 || st.UnderReplicated != 0 {
							t.Errorf("writer reports %d failed pushes, %d under-replicated", st.PushFailures, st.UnderReplicated)
						}
						// The writer loses its copy and reads the one replica back.
						stores[1].Evict(13, 0, 1)
						if got, _, err := stores[1].Get(13, 0, 1); err != nil || !bytes.Equal(got, img) {
							t.Fatalf("the only replica could not be fetched: %v", err)
						}
						if !lossy.done.Load() {
							t.Fatal("no frame was tampered with; the test exercised nothing")
						}
					})
				}
			}
		})
	}
}

// TestCorruptImageCopyIsRefused: a byte of one holder's copy of a stored image
// flips in RAM. A node that holds no copy asks that holder first, refuses what
// it sends, and restores the exact image from the other holder.
func TestCorruptImageCopyIsRefused(t *testing.T) {
	stores := newCluster(t, vni.NewFastnet(0), 3, 2)
	const app = 15
	k := key{app, 0, 1}
	img := chunkEpochs(1, 8)[0]
	if err := stores[1].Put(app, 0, 1, img, nil); err != nil {
		t.Fatal(err)
	}
	var reader wire.NodeID
	for id, s := range stores {
		if !s.Holds(app, 0, 1) {
			reader = id
		}
	}
	var first wire.NodeID
	for _, id := range HolderOrder(app, 0, []wire.NodeID{1, 2, 3}) {
		if id != reader && first == 0 {
			first = id
		}
	}
	if reader == 0 || first == 0 {
		t.Fatal("no node without a copy")
	}
	s := stores[first]
	s.mu.Lock()
	e := s.images[k]
	e.img[len(e.img)-ckpt.DeltaBlockSize/2] ^= 0x10 // inside the image's last block
	s.mu.Unlock()

	got, _, err := stores[reader].Get(app, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("node %d restored %d bytes (exact: %v), %v; want the image from the intact holder",
			reader, len(got), bytes.Equal(got, img), err)
	}
}
