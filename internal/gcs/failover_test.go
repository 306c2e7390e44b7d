package gcs

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"starfish/internal/chaosnet"
	"starfish/internal/gossip"
	"starfish/internal/leakcheck"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

func TestSequentialCrashesDownToQuorum(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 5, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3, 4, 5)
		}
		// Crash 4 then 5: each removal keeps a majority of the then-current
		// view (4/5, then 3/4).
		k.crash(fn, eps[3])
		for _, ep := range []*Endpoint{eps[0], eps[1], eps[2], eps[4]} {
			waitForView(t, ep, 1, 2, 3, 5)
		}
		k.crash(fn, eps[4])
		for _, ep := range eps[:3] {
			waitForView(t, ep, 1, 2, 3)
		}
		// The group still sequences casts.
		if err := eps[2].Cast([]byte("post-crashes")); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps[:3] {
			e := nextEvent(t, ep)
			if e.Kind != ECast || string(e.Payload) != "post-crashes" {
				t.Errorf("node %d: %+v", ep.Node(), e)
			}
		}
	})
}

// forgeRumor delivers a SWIM message to one endpoint in which member `from`
// reports all of `dead` confirmed dead at incarnation inc — the way to give
// a real detector a verdict at a moment of the test's choosing. It rides an
// ack for no probe.
func forgeRumor(t *testing.T, tr vni.Transport, to string, from wire.NodeID, inc uint32, dead ...wire.NodeID) {
	t.Helper()
	const ack = 2 // gossip's mAck
	msg := gossip.Message{Kind: ack, From: from}
	for _, n := range dead {
		msg.Updates = append(msg.Updates, gossip.Update{Node: n, Status: gossip.Dead, Inc: inc})
	}
	nic, err := vni.NewNIC(tr, "forger", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	m := wire.Msg{Type: wire.TControl, Kind: kGossip, Src: wire.Rank(from), Payload: gossip.EncodeMessage(&msg)}
	if err := nic.Send(to, &m); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumRuleFollowsDetector loses half of a 4-member view at once. 2 of
// 4 is not a strict majority, so on a detector's own opinion (gossip) the
// survivors must install nothing — they might be the partitioned minority.
// Verdicts agreed outside the group need no second vote: the same loss is
// removed at once, which is what lets a two-member app group lose a member.
func TestQuorumRuleFollowsDetector(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 4, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3, 4)
		}
		k.crash(fn, eps[2])
		k.crash(fn, eps[3])
		if k.agreed {
			for _, ep := range eps[:2] {
				waitForView(t, ep, 1, 2)
			}
			return
		}
		// Left to their probing the detectors would bury the two one after
		// the other, each removal a majority of the view before it. Hand the
		// coordinator both verdicts in one message instead.
		forgeRumor(t, fn, "node1", 2, 0, 3, 4)
		timeout := time.After(300 * time.Millisecond)
		for {
			select {
			case e := <-eps[0].Events():
				if e.Kind == EView {
					t.Fatalf("minority view installed: %v", e.View)
				}
			case <-timeout:
				return // held back, as required
			}
		}
	})
}

func TestJoinAfterCrashReusesGroup(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn, eps := joinGroup(t, 3, k.detector)
		for _, ep := range eps {
			waitForView(t, ep, 1, 2, 3)
		}
		k.crash(fn, eps[2])
		for _, ep := range eps[:2] {
			waitForView(t, ep, 1, 2)
		}
		// A new node (fresh id) joins the surviving group.
		ep4 := join(t, Config{Node: 4, Transport: fn, Contact: "node1", Detector: k.detector(4)})
		for _, ep := range []*Endpoint{eps[0], eps[1], ep4} {
			waitForView(t, ep, 1, 2, 4)
		}
		if err := ep4.Cast([]byte("newcomer")); err != nil {
			t.Fatal(err)
		}
		e := nextEvent(t, eps[0])
		if e.Kind != ECast || e.From != 4 {
			t.Errorf("%+v", e)
		}
	})
}

// TestElectionFromSurvivingView is the regression test for coordinator
// election: the coordinator role must stay with the previous coordinator
// while it survives (even when lower ids join), and fall back to the
// lowest *surviving* member only when it departs. Before the fix the
// sequencer role thrashed to the lowest global id on every join.
func TestElectionFromSurvivingView(t *testing.T) {
	eachDetector(t, func(t *testing.T, k detectorKind) {
		fn := vni.NewFastnet(0)
		mk := func(id wire.NodeID, contact string) *Endpoint {
			return join(t, Config{Node: id, Transport: fn, Contact: contact, Detector: k.detector(id)})
		}
		// A high-id node creates the group; lower ids join it.
		ep5 := mk(5, "")
		ep3 := mk(3, "node5")
		ep7 := mk(7, "node5")

		v, _ := waitForView(t, ep5, 3, 5, 7)
		if v.Coord != 5 {
			t.Fatalf("after joins coord = %d, want creator 5 to keep the role", v.Coord)
		}
		waitForView(t, ep3, 3, 5, 7)
		waitForView(t, ep7, 3, 5, 7)

		// The coordinator leaves: the lowest survivor takes over.
		if err := ep5.Leave(); err != nil {
			t.Fatalf("leave: %v", err)
		}
		v, _ = waitForView(t, ep3, 3, 7)
		if v.Coord != 3 {
			t.Fatalf("after coordinator left coord = %d, want lowest survivor 3", v.Coord)
		}
		waitForView(t, ep7, 3, 7)

		// The new coordinator crashes: the remaining member self-elects.
		k.crash(fn, ep3)
		v, _ = waitForView(t, ep7, 7)
		if v.Coord != 7 {
			t.Fatalf("after coordinator crash coord = %d, want survivor 7", v.Coord)
		}
	})
}

// TestVerdictsWaitForVerdict checks both halves of the verdict-set
// contract: a silent (crashed) member is NOT removed until the set says so,
// and once it does the member is removed promptly.
func TestVerdictsWaitForVerdict(t *testing.T) {
	v := new(Verdicts)
	_, eps := joinGroup(t, 3, func(wire.NodeID) Detector { return v })
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}

	eps[2].Close() // crash node 3 — nobody is watching
	time.Sleep(100 * time.Millisecond)
	if view := eps[0].View(); !view.Contains(3) {
		t.Fatal("group removed a member without a verdict")
	}

	v.Set(3, true)
	for _, ep := range eps[:2] {
		waitForView(t, ep, 1, 2)
	}
}

// TestVerdictSetBeforeJoinApplies declares node 3 dead before any engine
// exists. The engines that join afterwards read the shared set on their
// first tick, so the member is removed as soon as it shows up in a view —
// nobody replays the verdict to them.
func TestVerdictSetBeforeJoinApplies(t *testing.T) {
	v := new(Verdicts)
	v.Set(3, true)
	_, eps := joinGroup(t, 3, func(wire.NodeID) Detector { return v })
	for _, ep := range eps[:2] {
		waitForView(t, ep, 1, 2, 3)
		waitForView(t, ep, 1, 2)
	}
	// Node 3 is told it was excluded: its stream ends.
	for range eps[2].Events() {
	}
}

// TestNoDetectorNeverExcludes crashes a member of a group that was given no
// Detector: nobody is ever declared dead, so the survivors sit through many
// FailAfter periods without a view change.
func TestNoDetectorNeverExcludes(t *testing.T) {
	fn, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	fn.Crash("node3")
	go eps[2].Close()

	timeout := time.After(400 * time.Millisecond) // FailAfter is 8 x 5ms
	for {
		select {
		case e := <-eps[0].Events():
			t.Fatalf("node 1: unexpected %+v", e)
		case e := <-eps[1].Events():
			t.Fatalf("node 2: unexpected %+v", e)
		case <-timeout:
			if view := eps[0].View(); !view.Contains(3) {
				t.Fatalf("silent member removed without a detector: %v", view)
			}
			return
		}
	}
}

func TestChurnManyCastsAcrossViewChanges(t *testing.T) {
	// Casts issued continuously while members leave must keep total order
	// among the survivors.
	_, eps := joinGroup(t, 4, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3, 4)
	}
	stop := make(chan struct{})
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			eps[1].Cast([]byte(fmt.Sprintf("m%d", i)))
			i++
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	eps[3].Leave()
	time.Sleep(10 * time.Millisecond)
	eps[2].Leave()
	time.Sleep(20 * time.Millisecond)
	close(stop)

	// Drain both survivors; their cast sequences must be identical.
	collect := func(ep *Endpoint) []string {
		var out []string
		for {
			select {
			case e := <-ep.Events():
				if e.Kind == ECast {
					out = append(out, string(e.Payload))
				}
			case <-time.After(200 * time.Millisecond):
				return out
			}
		}
	}
	s0 := collect(eps[0])
	s1 := collect(eps[1])
	n := min(len(s0), len(s1))
	for i := 0; i < n; i++ {
		if s0[i] != s1[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, s0[i], s1[i])
		}
	}
	if n == 0 {
		t.Fatal("no casts delivered")
	}
}

func TestHasQuorum(t *testing.T) {
	cases := []struct {
		remaining, total int
		want             bool
	}{
		{1, 1, true}, {1, 2, true}, {0, 2, false},
		{2, 3, true}, {1, 3, false},
		{3, 4, true}, {2, 4, false},
		{3, 5, true}, {2, 5, false},
	}
	for _, c := range cases {
		if got := hasQuorum(c.remaining, c.total); got != c.want {
			t.Errorf("hasQuorum(%d, %d) = %v, want %v", c.remaining, c.total, got, c.want)
		}
	}
}

func TestStateTransferReflectsLatestState(t *testing.T) {
	// The coordinator's StateProvider is consulted at join time, so a
	// joiner sees state that includes all casts sequenced before its
	// view.
	fn := vni.NewFastnet(0)
	state := []byte("v1")
	a := join(t, Config{Node: 1, Transport: fn, StateProvider: func() []byte { return state }})
	nextEvent(t, a)
	state = []byte("v2") // coordinator state evolves

	b := join(t, Config{Node: 2, Transport: fn, Contact: "node1"})
	e := nextEvent(t, b)
	if string(e.State) != "v2" {
		t.Errorf("joiner state = %q, want v2", e.State)
	}
}

func TestSendAfterViewShrink(t *testing.T) {
	_, eps := joinGroup(t, 3, nil)
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	eps[2].Leave()
	waitForView(t, eps[0], 1, 2)
	// Point-to-point to the departed member fails cleanly.
	if err := eps[0].Send(wire.NodeID(3), []byte("x")); err != ErrNoMember {
		t.Errorf("Send to departed member: %v, want ErrNoMember", err)
	}
	// Point-to-point among survivors still works.
	if err := eps[0].Send(2, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	e := nextEvent(t, eps[1])
	for e.Kind != ESend {
		e = nextEvent(t, eps[1])
	}
	if string(e.Payload) != "alive" {
		t.Errorf("payload = %q", e.Payload)
	}
}

// TestWithdrawnVerdictAbortsElection reproduces the mid-election revival
// bug under both detectors: member 2 comes to believe coordinator 1 dead and
// starts a failover sync, which member 3's answer cannot complete (its link
// to 2 is cut), and then the verdict is withdrawn — under gossip the live
// coordinator refutes the rumor at a higher incarnation, under a verdict
// set the entry is retracted. That must abort the election: finishing it
// would install a spurious view that splits a healthy group.
func TestWithdrawnVerdictAbortsElection(t *testing.T) {
	t.Run("gossip-refutation", func(t *testing.T) {
		// A forged rumor from member 3. The accused hears it back from
		// member 2 and refutes it unprompted; a retry has to outbid the
		// incarnation the refutation claimed.
		var inc uint32
		accuse := func(net *chaosnet.Net) {
			inc += 100
			forgeRumor(t, net.Node("forger"), "node2", 3, inc, 1)
		}
		withdrawnVerdict(t, swim(nil), accuse, func() {})
	})
	t.Run("verdict-retraction", func(t *testing.T) {
		v := new(Verdicts)
		withdrawnVerdict(t, func(wire.NodeID) Detector { return v },
			func(*chaosnet.Net) { v.Set(1, true) }, func() { v.Set(1, false) })
	})
}

// withdrawnVerdict runs one TestWithdrawnVerdictAbortsElection case: accuse
// makes member 2's detector call node 1 dead (and is repeated until member 2
// acts on it: under gossip node 1 refutes as soon as a reply from member 2
// tells it, possibly before member 2 has started anything), withdraw takes
// it back.
func withdrawnVerdict(t *testing.T, detector func(wire.NodeID) Detector, accuse func(*chaosnet.Net), withdraw func()) {
	leakcheck.Check(t, 0)
	net := chaosnet.New(vni.NewFastnet(0), 0xE1EC, chaosnet.Config{})
	elections := &collector{} // member 2's gcs records
	eps := make([]*Endpoint, 3)
	for i := range eps {
		cfg := Config{
			Node:      wire.NodeID(i + 1),
			Transport: net.Node(fmt.Sprintf("node%d", i+1)),
			// Long enough that the open sync never times out on its own.
			FailAfter: 5 * time.Second,
			Detector:  detector(wire.NodeID(i + 1)),
		}
		if i > 0 {
			cfg.Contact = "node1"
		}
		if i == 1 {
			cfg.Events = elections
		}
		eps[i] = join(t, cfg)
	}
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	// await polls member 2's records for up to d.
	await := func(kind string, d time.Duration) bool {
		for deadline := time.Now().Add(d); elections.count(kind) == 0; {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}

	// Member 3's sync response to candidate 2 is lost, holding the election
	// open (probes between them still get through, relayed by node 1).
	net.Controller().PartitionOneWay("node3", "node2")
	for tries := 1; ; tries++ {
		accuse(net)
		if await("election-start", 20*time.Millisecond) {
			break
		}
		if tries == 100 {
			t.Fatal("member 2 never started an election")
		}
	}
	withdraw()
	if !await("election-abort", 5*time.Second) {
		t.Fatal("member 2 never aborted its election")
	}

	// The group must be intact: a cast from the original coordinator
	// reaches everyone, and nobody saw a view change.
	if err := eps[0].Cast([]byte("still-one-group")); err != nil {
		t.Fatalf("cast after the aborted election: %v", err)
	}
	for _, ep := range eps {
		for delivered := false; !delivered; {
			e := nextEvent(t, ep) // fails the test if node was excluded
			if e.Kind == EView {
				t.Fatalf("node %d: spurious view change %v after the aborted election", ep.Node(), e.View)
			}
			delivered = e.Kind == ECast && string(e.Payload) == "still-one-group"
		}
	}
	if n := elections.count("election-win"); n != 0 {
		t.Fatalf("member 2 won %d elections against a live coordinator", n)
	}
}

// TestRetransRepairsDeliveryGap drops 30% of the coordinator's kDeliver
// traffic to member 2 and verifies the gap-repair path (kRetransReq + the
// coordinator's horizon beacon) still delivers every cast, in order — and
// that SWIM's indirect probes keep the lossy link from reading as a death.
func TestRetransRepairsDeliveryGap(t *testing.T) {
	leakcheck.Check(t, 0)
	net := chaosnet.New(vni.NewFastnet(0), 0xD407, chaosnet.Config{})
	eps := make([]*Endpoint, 3)
	for i := range eps {
		cfg := Config{
			Node:      wire.NodeID(i + 1),
			Transport: net.Node(fmt.Sprintf("node%d", i+1)),
			Detector:  swim(nil)(wire.NodeID(i + 1)),
		}
		if i > 0 {
			cfg.Contact = "node1"
		}
		eps[i] = join(t, cfg)
	}
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	net.Controller().SetLinkFaults("node1", "node2", chaosnet.Faults{Drop: 0.3})

	const casts = 120
	go func() {
		for i := 0; i < casts; i++ {
			eps[0].Cast([]byte{byte(i)})
		}
	}()
	for _, ep := range eps {
		deadline := time.After(30 * time.Second)
		for got := 0; got < casts; {
			select {
			case e, ok := <-ep.Events():
				if !ok {
					t.Fatalf("node %d: events closed", ep.Node())
				}
				if e.Kind == EView {
					t.Fatalf("node %d: spurious view change %v under 30%% loss", ep.Node(), e.View)
				}
				if e.Kind != ECast {
					continue
				}
				if int(e.Payload[0]) != got {
					t.Fatalf("node %d: cast %d arrived out of order (want %d)", ep.Node(), e.Payload[0], got)
				}
				got++
			case <-deadline:
				t.Fatalf("node %d: stalled at %d/%d casts under loss", ep.Node(), got, casts)
			}
		}
	}
}

// TestTransportEvidenceStartsTheProbe: the detectors here start a round only
// every minute, so after the first one no ring probe will find a dead member
// while the test lasts. The crash is found all the same: the coordinator's
// NIC sees the connection close, the engine maps the address to the member
// and hands it to the detector, which probes it out of turn — no ping-timeout
// stage, direct and indirect paths together — and, the one proxy having
// failed alongside, confirms on corroborated suspicion. Evidence alone does
// not suspect: the same report about a live member (its connection reset,
// not its node) ends with an answered probe and no record but the evidence.
func TestTransportEvidenceStartsTheProbe(t *testing.T) {
	leakcheck.Check(t, 0)
	records := &collector{} // the coordinator's detector records
	detector := func(id wire.NodeID) Detector {
		cfg := gossip.Config{Self: id, Seed: uint64(id), Params: gossip.Params{
			ProbeEvery:   time.Minute,
			ProbeTimeout: 10 * time.Millisecond,
			SuspectAfter: 200 * time.Millisecond,
		}}
		if id == 1 {
			cfg.Events = records
		}
		return gossip.New(cfg)
	}
	fn := vni.NewFastnet(0)
	net := chaosnet.New(fn, 0xE71D, chaosnet.Config{})
	eps := make([]*Endpoint, 3)
	for i := range eps {
		cfg := Config{
			Node:      wire.NodeID(i + 1),
			Transport: net.Node(fmt.Sprintf("node%d", i+1)),
			Detector:  detector(wire.NodeID(i + 1)),
		}
		if i > 0 {
			cfg.Contact = "node1"
		}
		eps[i] = join(t, cfg)
	}
	for _, ep := range eps {
		waitForView(t, ep, 1, 2, 3)
	}
	kinds := func() []string {
		records.mu.Lock()
		defer records.mu.Unlock()
		var out []string
		for _, r := range records.recs {
			target, _ := r.Get("target")
			out = append(out, r.Kind+":"+target)
		}
		return out
	}

	// A reset link to a live member: evidence, a probe, an answer.
	net.Controller().ResetLink("node1", "node2")
	for deadline := time.Now().Add(5 * time.Second); records.count("evidence") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the reset link was never reported to the detector")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // five probe timeouts
	if got := kinds(); len(got) != 1 || got[0] != "evidence:2" {
		t.Fatalf("a reset link to a live member left %v, want the evidence record alone", got)
	}

	// A crash.
	fn.Crash(eps[2].Addr())
	go eps[2].Close()
	for _, ep := range eps[:2] {
		waitForView(t, ep, 1, 2)
	}
	want := []string{"evidence:2", "evidence:3", "suspect:3", "corroborate:3", "confirm-dead:3"}
	if got := kinds(); !slices.Equal(got, want) {
		t.Fatalf("coordinator's detector records = %v, want %v", got, want)
	}
}
