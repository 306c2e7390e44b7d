package gcs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/gossip"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// join starts one endpoint with the suite's defaults filled in — a 5ms
// tick, the address "node<id>" — and registers its teardown.
func join(t *testing.T, cfg Config) *Endpoint {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = fmt.Sprintf("node%d", cfg.Node)
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 5 * time.Millisecond
	}
	ep, err := Join(cfg)
	if err != nil {
		t.Fatalf("Join %s: %v", cfg.Addr, err)
	}
	t.Cleanup(ep.Close)
	return ep
}

// joinGroup spins up nodes 1..n on one fastnet, joined through node 1.
// detector makes each node's Detector; nil leaves the group without one
// (nobody is ever declared dead).
func joinGroup(t *testing.T, n int, detector func(wire.NodeID) Detector) (*vni.Fastnet, []*Endpoint) {
	t.Helper()
	fn := vni.NewFastnet(0)
	eps := make([]*Endpoint, n)
	for i := range eps {
		cfg := Config{Node: wire.NodeID(i + 1), Transport: fn}
		if i > 0 {
			cfg.Contact = "node1"
		}
		if detector != nil {
			cfg.Detector = detector(cfg.Node)
		}
		eps[i] = join(t, cfg)
	}
	return fn, eps
}

// swim makes per-node SWIM detectors paced for tests: 5ms rounds, 40ms for
// a suspect to refute. records receives their event records.
func swim(records evstore.Sink) func(wire.NodeID) Detector {
	return func(id wire.NodeID) Detector {
		return gossip.New(gossip.Config{
			Self: id,
			Seed: uint64(id),
			Params: gossip.Params{
				ProbeEvery:     5 * time.Millisecond,
				SuspectAfter:   40 * time.Millisecond,
				IndirectFanout: 3,
			},
			Events: records,
		})
	}
}

// detectorKind is one of the two Detector implementations, as a crash
// scenario needs it.
type detectorKind struct {
	// detector is joinGroup's per-node factory.
	detector func(wire.NodeID) Detector
	// told informs the detectors of a crash, where they have to be told.
	told func(wire.NodeID)
	// agreed mirrors Detector.Agreed.
	agreed bool
	// records collects SWIM's own event records (nil for a verdict set).
	records *collector
}

// eachDetector runs a crash scenario once per Detector implementation: SWIM
// detectors that find out by probing, and one shared verdict set that is
// told.
func eachDetector(t *testing.T, scenario func(t *testing.T, k detectorKind)) {
	t.Run("gossip", func(t *testing.T) {
		records := &collector{}
		scenario(t, detectorKind{detector: swim(records), told: func(wire.NodeID) {}, records: records})
	})
	t.Run("verdicts", func(t *testing.T) {
		v := new(Verdicts)
		scenario(t, detectorKind{
			detector: func(wire.NodeID) Detector { return v },
			told:     func(n wire.NodeID) { v.Set(n, true) },
			agreed:   true,
		})
	})
}

// crash kills an endpoint the way a node dies: its address goes dark and
// its engine stops without a word to the group.
func (k detectorKind) crash(fn *vni.Fastnet, ep *Endpoint) {
	fn.Crash(ep.Addr())
	go ep.Close()
	k.told(ep.Node())
}

// collector is a thread-safe evstore.Sink for asserting on emitted records.
type collector struct {
	mu   sync.Mutex
	recs []evstore.Record
}

func (c *collector) Emit(r evstore.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

func (c *collector) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// nextEvent waits for the next event with a deadline.
func nextEvent(t *testing.T, ep *Endpoint) Event {
	t.Helper()
	select {
	case e, ok := <-ep.Events():
		if !ok {
			t.Fatalf("node %d: events channel closed", ep.Node())
		}
		return e
	case <-time.After(10 * time.Second):
		t.Fatalf("node %d: timed out waiting for event", ep.Node())
		panic("unreachable")
	}
}

// waitForView drains events until a view with exactly the given members
// arrives, returning it (and any casts seen along the way).
func waitForView(t *testing.T, ep *Endpoint, members ...wire.NodeID) (View, []Event) {
	t.Helper()
	var casts []Event
	deadline := time.After(10 * time.Second)
	for {
		select {
		case e, ok := <-ep.Events():
			if !ok {
				t.Fatalf("node %d: events closed while waiting for view %v", ep.Node(), members)
			}
			if e.Kind == ECast {
				casts = append(casts, e)
				continue
			}
			if e.Kind == EView && sameMembers(e.View.Members, members) {
				return e.View, casts
			}
		case <-deadline:
			t.Fatalf("node %d: no view with members %v", ep.Node(), members)
		}
	}
}

func sameMembers(a, b []wire.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSingletonGroup(t *testing.T) {
	_, eps := joinGroup(t, 1, nil)
	e := nextEvent(t, eps[0])
	if e.Kind != EView {
		t.Fatalf("first event = %v, want EView", e.Kind)
	}
	if len(e.View.Members) != 1 || e.View.Members[0] != 1 || e.View.Coord != 1 {
		t.Errorf("view = %v", e.View)
	}
}

func TestJoinGrowsView(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for i, ep := range eps {
		v, _ := waitForView(t, ep, 1, 2, 3)
		if v.Coord != 1 {
			t.Errorf("node %d: coord = %d, want 1", i+1, v.Coord)
		}
		if v.Addrs[2] != "node2" {
			t.Errorf("node %d: addr map %v", i+1, v.Addrs)
		}
	}
}

func TestCastReachesAllIncludingSender(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	if err := eps[1].Cast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		e := nextEvent(t, ep)
		if e.Kind != ECast || string(e.Payload) != "hello" || e.From != 2 {
			t.Errorf("node %d: got %+v", i+1, e)
		}
	}
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	_, eps := joinGroup(t, 4, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3, 4)
	}
	const perSender = 25
	for s, ep := range eps {
		go func(s int, ep *Endpoint) {
			for i := 0; i < perSender; i++ {
				ep.Cast([]byte(fmt.Sprintf("%d:%d", s, i)))
			}
		}(s, ep)
	}
	total := perSender * len(eps)
	sequences := make([][]string, len(eps))
	for i, ep := range eps {
		for len(sequences[i]) < total {
			e := nextEvent(t, ep)
			if e.Kind == ECast {
				sequences[i] = append(sequences[i], string(e.Payload))
			}
		}
	}
	for i := 1; i < len(sequences); i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("total order violated at position %d: node1 saw %q, node%d saw %q",
					j, sequences[0][j], i+1, sequences[i][j])
			}
		}
	}
}

func TestPerSenderFIFO(t *testing.T) {
	_, eps := joinGroup(t, 2, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := eps[1].Cast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		e := nextEvent(t, eps[0])
		if e.Kind != ECast || e.Payload[0] != byte(i) {
			t.Fatalf("position %d: got %+v", i, e)
		}
	}
}

func TestPointToPointSend(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	if err := eps[0].Send(3, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	e := nextEvent(t, eps[2])
	if e.Kind != ESend || e.From != 1 || string(e.Payload) != "direct" {
		t.Errorf("got %+v", e)
	}
	if err := eps[0].Send(99, nil); err != ErrNoMember {
		t.Errorf("Send to non-member: %v, want ErrNoMember", err)
	}
}

func TestMemberCrashTriggersViewChange(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 5, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3, 4, 5)
		}
		k.crash(fn, eps[4]) // not the coordinator

		for _, ep := range eps[:4] {
			v, casts := waitForView(t, ep, 1, 2, 3, 4)
			if v.Coord != 1 {
				t.Errorf("coord = %d, want 1", v.Coord)
			}
			if len(casts) != 0 {
				t.Errorf("node %d: %d casts before any were sent", ep.Node(), len(casts))
			}
		}
		if k.records != nil {
			// SWIM's path to the verdict is on its own sink.
			for _, kind := range []string{"suspect", "confirm-dead"} {
				if k.records.count(kind) == 0 {
					t.Errorf("no gossip %s record emitted for the crash", kind)
				}
			}
		}
		// Group still works.
		if err := eps[1].Cast([]byte("after")); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps[:4] {
			e := nextEvent(t, ep)
			if e.Kind != ECast || string(e.Payload) != "after" {
				t.Errorf("post-crash cast: %+v", e)
			}
		}
	})
}

func TestCoordinatorCrashFailover(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 4, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3, 4)
		}
		// Crash the coordinator (node 1). Node 2 must take over, in exactly
		// one view change.
		k.crash(fn, eps[0])
		for _, ep := range eps[1:] {
			e := nextEvent(t, ep)
			if e.Kind != EView || !sameMembers(e.View.Members, []wire.NodeID{2, 3, 4}) || e.View.Coord != 2 {
				t.Errorf("node %d: after failover got %+v, want view {2,3,4} led by 2", ep.Node(), e)
			}
		}
		// The group must still sequence casts.
		if err := eps[2].Cast([]byte("survived")); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps[1:] {
			e := nextEvent(t, ep)
			if e.Kind != ECast || string(e.Payload) != "survived" {
				t.Errorf("node %d: %+v", ep.Node(), e)
			}
		}
	})
}

func TestCastDuringCoordinatorFailure(t *testing.T) {
	// A cast issued while the coordinator is dead must still be delivered
	// exactly once after failover (pending-cast retransmission + dedup).
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 3, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3)
		}
		fn.Crash("node1")
		go eps[0].Close()
		// Issue immediately, before anyone knows of the crash.
		if err := eps[2].Cast([]byte("limbo")); err != nil {
			t.Fatal(err)
		}
		k.told(1)
		for _, ep := range eps[1:] {
			_, casts := waitForView(t, ep, 2, 3)
			// The cast may arrive before or after the view.
			for len(casts) == 0 {
				if e := nextEvent(t, ep); e.Kind == ECast {
					casts = append(casts, e)
				}
			}
			if string(casts[0].Payload) != "limbo" {
				t.Errorf("node %d: got %q", ep.Node(), casts[0].Payload)
			}
			// Exactly once: no duplicate should follow. Send a sentinel and
			// make sure the very next cast is the sentinel.
			if err := ep.Cast([]byte("sentinel")); err != nil {
				t.Fatal(err)
			}
			for {
				e := nextEvent(t, ep)
				if e.Kind != ECast {
					continue
				}
				if string(e.Payload) == "limbo" {
					t.Fatalf("node %d: duplicate delivery of pending cast", ep.Node())
				}
				if string(e.Payload) == "sentinel" {
					break
				}
			}
		}
	})
}

func TestLeaveShrinksView(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	if err := eps[2].Leave(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps[:2] {
		waitForView(t, ep, 1, 2)
	}
}

func TestCoordinatorLeaveHandsOver(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	if err := eps[0].Leave(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps[1:] {
		v, _ := waitForView(t, ep, 2, 3)
		if v.Coord != 2 {
			t.Errorf("coord after handover = %d, want 2", v.Coord)
		}
	}
	if err := eps[1].Cast([]byte("go on")); err != nil {
		t.Fatal(err)
	}
	e := nextEvent(t, eps[2])
	if e.Kind != ECast || string(e.Payload) != "go on" {
		t.Errorf("%+v", e)
	}
}

func TestStateTransferToJoiner(t *testing.T) {
	fn := vni.NewFastnet(0)
	state := []byte("replicated-config-v17")
	a := join(t, Config{Node: 1, Transport: fn, StateProvider: func() []byte { return state }})
	nextEvent(t, a) // own first view

	b := join(t, Config{Node: 2, Transport: fn, Contact: "node1"})
	e := nextEvent(t, b)
	if e.Kind != EView {
		t.Fatalf("first joiner event = %v", e.Kind)
	}
	if string(e.State) != string(state) {
		t.Errorf("state transfer = %q, want %q", e.State, state)
	}
}

func TestJoinBadContact(t *testing.T) {
	fn := vni.NewFastnet(0)
	_, err := Join(Config{
		Node: 1, Transport: fn, Addr: "n1", Contact: "missing",
		HeartbeatEvery: time.Millisecond,
	})
	if err == nil {
		t.Fatal("Join with dead contact succeeded")
	}
}

func TestViewAccessor(t *testing.T) {
	_, eps := joinGroup(t, 2, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2)
	}
	v := eps[0].View()
	if !sameMembers(v.Members, []wire.NodeID{1, 2}) {
		t.Errorf("View() = %v", v)
	}
	if !v.Contains(2) || v.Contains(9) {
		t.Error("Contains misbehaves")
	}
}

func TestCloseIsIdempotentAndEndsEvents(t *testing.T) {
	_, eps := joinGroup(t, 1, nil)
	nextEvent(t, eps[0])
	eps[0].Close()
	eps[0].Close()
	if _, ok := <-eps[0].Events(); ok {
		// Draining any residue is fine, but the channel must close.
		for range eps[0].Events() {
		}
	}
	if err := eps[0].Cast(nil); err != ErrLeft {
		t.Errorf("Cast after Close: %v, want ErrLeft", err)
	}
}

func TestViewEncodeDecodeRoundTrip(t *testing.T) {
	v := View{
		ID:      7,
		Coord:   3,
		Members: []wire.NodeID{3, 5, 9},
		Addrs:   map[wire.NodeID]string{3: "a", 5: "b", 9: "c"},
	}
	got, err := decodeView(encodeView(&v))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Coord != 3 || !sameMembers(got.Members, v.Members) || got.Addrs[5] != "b" {
		t.Errorf("round trip = %+v", got)
	}
}

// hugeCountView is a short view frame whose member count claims 2^24.
func hugeCountView() []byte {
	w := wire.NewWriter(32)
	w.U64(7).U32(3).U32(1 << 24).U32(3).String("a")
	return w.Bytes()
}

// TestDecodeViewBoundsCount: a view's member count is peer-supplied (a
// welcome or a sequenced view change), so a short frame claiming 2^24
// members is refused without sizing anything by it.
func TestDecodeViewBoundsCount(t *testing.T) {
	b := hugeCountView()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeView(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("a 2^24 member count in %d bytes decoded", len(b))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("decoding %d bytes allocated %d", len(b), n)
	}
}

// FuzzDecodeView: any frame decodes to a view or an error, never a panic; a
// decoded view has no more members than its frame has room for, and
// re-encodes to a frame that decodes to the same encoding.
func FuzzDecodeView(f *testing.F) {
	f.Add(encodeView(&View{ID: 7, Coord: 3, Members: []wire.NodeID{3, 5}, Addrs: map[wire.NodeID]string{3: "a", 5: "b"}}))
	f.Add(hugeCountView())
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decodeView(b)
		if err != nil {
			return
		}
		if len(v.Members)*8 > len(b) {
			t.Fatalf("%d members from %d bytes", len(v.Members), len(b))
		}
		enc := encodeView(&v)
		again, err := decodeView(enc)
		if err != nil {
			t.Fatalf("re-encoded view does not decode: %v", err)
		}
		if !bytes.Equal(encodeView(&again), enc) {
			t.Fatalf("view changed across a round trip: %+v vs %+v", v, again)
		}
	})
}

func TestSeqMsgRoundTrip(t *testing.T) {
	m := seqMsg{Seq: 42, Kind: dCast, Sender: 3, SenderSeq: 17, Payload: []byte("p")}
	got, err := decodeSeqMsg(encodeSeqMsg(&m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || got.Kind != dCast || got.Sender != 3 || got.SenderSeq != 17 || string(got.Payload) != "p" {
		t.Errorf("round trip = %+v", got)
	}
}
