package gossip

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/wire"
)

// sim drives a set of detectors in virtual time with immediate in-memory
// delivery: no goroutines, no wall clock, fully deterministic under seeds.
type sim struct {
	now   time.Time
	ids   []wire.NodeID
	peers map[wire.NodeID]*Detector
	// down peers drop all inbound traffic (crash).
	down map[wire.NodeID]bool
	// cut severs every link touching a peer (partition, peer still alive).
	cut map[wire.NodeID]bool
	// delivered counts messages accepted by live peers.
	delivered uint64
}

func newSim(n int, p Params) *sim {
	s := &sim{
		now:   time.Unix(0, 0),
		peers: make(map[wire.NodeID]*Detector),
		down:  make(map[wire.NodeID]bool),
		cut:   make(map[wire.NodeID]bool),
	}
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		s.ids = append(s.ids, id)
		s.peers[id] = New(Config{Self: id, Seed: uint64(i), Params: p})
	}
	for _, d := range s.peers {
		d.SetMembers(s.ids)
	}
	return s
}

// step advances virtual time by dt, ticks every live peer and delivers all
// resulting traffic (including replies) within the step.
func (s *sim) step(dt time.Duration) {
	s.now = s.now.Add(dt)
	var queue []struct {
		from wire.NodeID
		env  Envelope
	}
	for _, id := range s.ids {
		if s.down[id] {
			continue
		}
		envs, _ := s.peers[id].Tick(s.now)
		for _, env := range envs {
			queue = append(queue, struct {
				from wire.NodeID
				env  Envelope
			}{id, env})
		}
	}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		to := item.env.To
		if s.down[to] || s.cut[to] || s.cut[item.from] {
			continue
		}
		s.delivered++
		replies, err := s.peers[to].Handle(s.now, item.env.Payload)
		if err != nil {
			panic(err)
		}
		for _, r := range replies {
			queue = append(queue, struct {
				from wire.NodeID
				env  Envelope
			}{to, r})
		}
	}
}

func testParams() Params {
	return Params{
		ProbeEvery:     10 * time.Millisecond,
		ProbeTimeout:   5 * time.Millisecond,
		SuspectAfter:   80 * time.Millisecond,
		IndirectFanout: 3,
	}
}

func TestDetectConfirmsDeadPeer(t *testing.T) {
	s := newSim(8, testParams())
	for i := 0; i < 20; i++ {
		s.step(5 * time.Millisecond)
	}
	victim := wire.NodeID(8)
	s.down[victim] = true

	deadline := 400
	saw := []Status{Alive} // peer 1's successive opinions of the victim
	for i := 0; ; i++ {
		s.step(5 * time.Millisecond)
		if st := s.peers[1].Status(victim); st != saw[len(saw)-1] {
			saw = append(saw, st)
		}
		allDead := true
		for _, id := range s.ids {
			if id == victim {
				continue
			}
			if s.peers[id].Status(victim) != Dead {
				allDead = false
			}
		}
		if allDead {
			break
		}
		if i > deadline {
			t.Fatalf("not all survivors confirmed node %d dead within %d steps", victim, deadline)
		}
	}
	// No survivor may have buried a live peer.
	for _, id := range s.ids {
		if id == victim {
			continue
		}
		for _, other := range s.ids {
			if other == victim || other == id {
				continue
			}
			if st := s.peers[id].Status(other); st == Dead {
				t.Fatalf("peer %d wrongly confirmed live peer %d dead", id, other)
			}
		}
	}
	// The observer must have passed through suspicion before the verdict.
	if len(saw) < 3 || saw[1] != Suspect || saw[len(saw)-1] != Dead {
		t.Fatalf("peer 1 saw the victim go %v, want alive suspect...dead", saw)
	}
}

func TestRefuteClearsFalseSuspicion(t *testing.T) {
	s := newSim(6, testParams())
	for i := 0; i < 20; i++ {
		s.step(5 * time.Millisecond)
	}
	// Partition node 3 for half the suspicion budget: long enough to be
	// suspected, short enough to refute before confirmation.
	s.cut[3] = true
	for i := 0; i < 8; i++ { // 40ms < SuspectAfter (80ms)
		s.step(5 * time.Millisecond)
	}
	suspected := false
	for _, id := range s.ids {
		if id != 3 && s.peers[id].Status(3) == Suspect {
			suspected = true
		}
	}
	delete(s.cut, 3)
	for i := 0; i < 60; i++ {
		s.step(5 * time.Millisecond)
	}
	for _, id := range s.ids {
		if id == 3 {
			continue
		}
		if st := s.peers[id].Status(3); st != Alive {
			t.Fatalf("peer %d still sees node 3 as %v after heal", id, st)
		}
	}
	if !suspected {
		t.Log("partition healed before any suspicion arose (timing-dependent); refute path untested this run")
	}
}

func TestLoadIsConstantPerRound(t *testing.T) {
	load := func(n int) float64 {
		s := newSim(n, testParams())
		// Settle, then measure over 50 rounds.
		for i := 0; i < 20; i++ {
			s.step(5 * time.Millisecond)
		}
		start := s.delivered
		var rounds0 uint64
		for _, d := range s.peers {
			rounds0 += d.Stats().Rounds
		}
		for i := 0; i < 100; i++ {
			s.step(5 * time.Millisecond)
		}
		var rounds uint64
		for _, d := range s.peers {
			rounds += d.Stats().Rounds
		}
		return float64(s.delivered-start) / float64(rounds-rounds0)
	}
	small, big := load(16), load(256)
	if big > 2*small || big > 6 {
		t.Fatalf("per-round message load grew with group size: n=16 → %.2f, n=256 → %.2f", small, big)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() []byte {
		s := newSim(5, testParams())
		var buf bytes.Buffer
		for i := 0; i < 40; i++ {
			s.now = s.now.Add(5 * time.Millisecond)
			for _, id := range s.ids {
				envs, _ := s.peers[id].Tick(s.now)
				for _, env := range envs {
					buf.WriteByte(byte(env.To))
					buf.Write(env.Payload)
					if replies, err := s.peers[env.To].Handle(s.now, env.Payload); err == nil {
						for _, r := range replies {
							buf.WriteByte(byte(r.To))
							buf.Write(r.Payload)
						}
					}
				}
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical seeds produced different protocol traffic")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	in := Message{
		Kind: mPingReq, From: 7, Target: 9, Origin: 3, Seq: 42,
		Updates: []Update{
			{Node: 1, Status: Alive, Inc: 0},
			{Node: 2, Status: Suspect, Inc: 5, From: 8},
			{Node: 3, Status: Dead, Inc: 1},
		},
	}
	out, err := DecodeMessage(EncodeMessage(&in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.From != in.From || out.Target != in.Target ||
		out.Origin != in.Origin || out.Seq != in.Seq || len(out.Updates) != 3 {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Updates {
		if out.Updates[i] != in.Updates[i] {
			t.Fatalf("update %d mismatch: %+v vs %+v", i, out.Updates[i], in.Updates[i])
		}
	}
	if _, err := DecodeMessage([]byte{0xff, 0x01}); err == nil {
		t.Fatal("truncated/garbage message decoded without error")
	}
}

func TestRefuteBumpsIncarnation(t *testing.T) {
	d := New(Config{Self: 1, Seed: 1, Params: testParams()})
	d.SetMembers([]wire.NodeID{1, 2, 3})
	// Deliver a rumor accusing us at incarnation 4.
	accusation := Message{Kind: mPing, From: 2, Seq: 1,
		Updates: []Update{{Node: 1, Status: Suspect, Inc: 4}}}
	out, err := d.Handle(time.Unix(1, 0), EncodeMessage(&accusation))
	if err != nil {
		t.Fatal(err)
	}
	// The ack to the accuser's messenger carries the refutation (the pushes
	// to other peers carry it too).
	found := false
	for _, env := range out {
		msg, err := DecodeMessage(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.To != 2 || msg.Kind != mAck {
			continue
		}
		for _, u := range msg.Updates {
			if u.Node == 1 && u.Status == Alive && u.Inc == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no ack to node 2 carries the alive@5 refutation (%d envelopes)", len(out))
	}
}

// ---- seeded safety properties ----
//
// The tests below check the verdict's safety and speed as properties over
// seeds, in virtual time: world is a network of detectors in which every
// message takes one step to arrive and may be lost, and every member handles
// what has arrived before it runs its timers — the order the gcs engine
// keeps. Timing follows the production ratios (cluster.Options defaults:
// rounds and probe timeouts of one length, SuspectAfter fifteen of them).

const propStep = time.Millisecond

func propParams() Params {
	return Params{
		ProbeEvery:     5 * time.Millisecond,
		ProbeTimeout:   5 * time.Millisecond,
		SuspectAfter:   75 * time.Millisecond,
		IndirectFanout: 3,
	}
}

// falseKillBound is the silence a live member can keep toward everyone and
// still never be called dead: a direct and an indirect probe stage, then the
// shortest budget a suspicion can have.
func falseKillBound(p Params) time.Duration { return 2*p.ProbeTimeout + p.SuspectAfter/4 }

type packet struct {
	from, to wire.NodeID
	payload  []byte
}

// noted is one detector record with the virtual time it was emitted at.
type noted struct {
	at     time.Time
	node   wire.NodeID
	kind   string
	target string
}

type world struct {
	p    Params
	now  time.Time
	rng  uint64
	loss float64
	ids  []wire.NodeID
	// Per-member state is indexed by id (ids are 1..n; slot 0 is unused).
	dets []*Detector
	// down members have crashed: they run no timers and what reaches them
	// is lost.
	down []bool
	// asleep members are alive but not running until the given time; what
	// reaches them waits in held and is handled first when they wake.
	asleep []time.Time
	held   [][]packet
	// cut drops a packet by its endpoints (nil: no link is cut).
	cut func(from, to wire.NodeID) bool
	// due is when each member next has to run its timers, as its last Tick
	// said; a member that handled a message runs them at once (stirred),
	// since a deadline may have moved.
	due      []time.Time
	stirred  []bool
	inflight []packet
	sent     uint64
	log      []noted
}

// sink stamps one member's records with the world's clock.
type sink struct {
	w    *world
	node wire.NodeID
}

func (s sink) Emit(r evstore.Record) {
	target, _ := r.Get("target")
	s.w.log = append(s.w.log, noted{at: s.w.now, node: s.node, kind: r.Kind, target: target})
}

func newWorld(n int, seed uint64, loss float64) *world {
	w := &world{
		p:       propParams(),
		now:     time.Unix(0, 0),
		rng:     seed*0x9e3779b97f4a7c15 + 1,
		loss:    loss,
		dets:    make([]*Detector, n+1),
		down:    make([]bool, n+1),
		asleep:  make([]time.Time, n+1),
		held:    make([][]packet, n+1),
		due:     make([]time.Time, n+1),
		stirred: make([]bool, n+1),
	}
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		w.ids = append(w.ids, id)
		w.dets[id] = New(Config{Self: id, Seed: seed<<16 + uint64(i), Params: w.p, Events: sink{w, id}})
	}
	for _, id := range w.ids {
		w.dets[id].SetMembers(w.ids)
	}
	return w
}

func (w *world) rand() uint64 { return splitmix64(&w.rng) }

func (w *world) post(from wire.NodeID, envs []Envelope) {
	for _, e := range envs {
		w.sent++
		w.inflight = append(w.inflight, packet{from, e.To, e.Payload})
	}
}

func (w *world) handle(pk packet) {
	outs, err := w.dets[pk.to].Handle(w.now, pk.payload)
	if err != nil {
		panic(err)
	}
	w.post(pk.to, outs)
	w.stirred[pk.to] = true
}

// advance moves the world one step: deliver what was sent last step, wake
// who is due, then run the timers of every running member that asked to be
// run by now.
func (w *world) advance() {
	w.now = w.now.Add(propStep)
	arriving := w.inflight
	w.inflight = nil
	for _, pk := range arriving {
		switch {
		case w.down[pk.to] || (w.cut != nil && w.cut(pk.from, pk.to)):
		case w.loss > 0 && float64(w.rand()>>11)/(1<<53) < w.loss:
		case !w.asleep[pk.to].IsZero():
			w.held[pk.to] = append(w.held[pk.to], pk)
		default:
			w.handle(pk)
		}
	}
	for _, id := range w.ids {
		if w.down[id] {
			continue
		}
		if until := w.asleep[id]; !until.IsZero() {
			if w.now.Before(until) {
				continue
			}
			w.asleep[id] = time.Time{}
			for _, pk := range w.held[id] {
				w.handle(pk)
			}
			w.held[id] = nil
		}
		if !w.stirred[id] && w.now.Before(w.due[id]) {
			continue
		}
		w.stirred[id] = false
		envs, due := w.dets[id].Tick(w.now)
		w.due[id] = due
		w.post(id, envs)
	}
}

func (w *world) run(d time.Duration) {
	for end := w.now.Add(d); w.now.Before(end); {
		w.advance()
	}
}

// confirmed reports whether every survivor calls victim dead.
func (w *world) confirmed(victim wire.NodeID) bool {
	for _, id := range w.ids {
		if id != victim && !w.dets[id].Dead(victim) {
			return false
		}
	}
	return true
}

// pick draws a member other than not.
func (w *world) pick(not wire.NodeID) wire.NodeID {
	for {
		if id := w.ids[w.rand()%uint64(len(w.ids))]; id != not {
			return id
		}
	}
}

// first returns the earliest record at or after since that matches.
func (w *world) first(since time.Time, kind string, target wire.NodeID) (noted, bool) {
	for _, r := range w.log {
		if r.kind == kind && r.target == fmt.Sprint(target) && !r.at.Before(since) {
			return r, true
		}
	}
	return noted{}, false
}

// buried returns the records that call a member dead other than victim (0:
// nobody was supposed to die).
func (w *world) buried(victim wire.NodeID) []noted {
	var out []noted
	for _, r := range w.log {
		if r.kind == "confirm-dead" && r.target != fmt.Sprint(victim) {
			out = append(out, r)
		}
	}
	return out
}

// propGrid runs one property over the seed × loss × group-size grid. A
// 64-member world costs thirty times a 4-member one, so it gets a tenth of
// the seeds; -short thins all of them, and so does the race detector, which
// has nothing to find in a state machine that starts no goroutine.
func propGrid(t *testing.T, prop func(t *testing.T, seed uint64, loss float64, n int)) {
	for _, n := range []int{3, 4, 8, 64} {
		seeds := 1000
		if n == 64 {
			seeds /= 10
		}
		switch {
		case raceEnabled:
			seeds /= 50
		case testing.Short():
			seeds /= 10
		}
		for _, loss := range []float64{0, 0.01, 0.05} {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				prop(t, seed, loss, n)
				if t.Failed() {
					t.Fatalf("property failed at seed=%d loss=%v n=%d", seed, loss, n)
				}
			}
		}
	}
}

// spread bounds how long news pushed by the accusers of an n-member group
// takes to reach the last member by piggyback: a few rounds per doubling,
// twice that when messages are being lost.
func spread(p Params, n int, loss float64) time.Duration {
	rounds := 2
	for m := 1; m < n; m *= 2 {
		rounds += 2
	}
	if loss > 0 {
		rounds *= 2
	}
	return time.Duration(rounds) * p.ProbeEvery
}

// TestCrashIsConfirmedFast: every survivor calls a crashed member dead
// within SuspectAfter/4 plus the spread of the news from the first
// suspicion — not the SuspectAfter a lone accuser waits — and nobody who
// lives is called dead on the way, lost messages or not.
func TestCrashIsConfirmedFast(t *testing.T) {
	propGrid(t, func(t *testing.T, seed uint64, loss float64, n int) {
		w := newWorld(n, seed, loss)
		w.run(4 * w.p.ProbeEvery)
		victim := w.pick(0)
		w.down[victim] = true
		killed := w.now
		for limit := w.now.Add(time.Duration(n+4)*w.p.ProbeEvery + 2*w.p.SuspectAfter); !w.confirmed(victim); {
			if w.now.After(limit) {
				t.Fatalf("victim %d not confirmed by every survivor", victim)
			}
			w.advance()
		}
		suspected, _ := w.first(killed, "suspect", victim)
		took := w.now.Sub(suspected.at)
		bound := w.p.SuspectAfter/4 + spread(w.p, n, loss)
		if n > 2 && took > bound {
			t.Errorf("last verdict %v after the first suspicion, want within %v", took, bound)
		}
		if live := w.buried(victim); len(live) > 0 {
			t.Errorf("live member called dead: %+v", live[0])
		}
	})
}

// TestShortSilenceNeverKills: a live member that stops running — handles
// nothing, answers nothing — for less than falseKillBound is never called
// dead by anyone. Whoever accused it offered it a direct chance to answer,
// which it takes when it wakes; everyone else was waiting out the full
// budget. With messages being lost the answer may need a second try, so the
// silence is kept two rounds shorter.
func TestShortSilenceNeverKills(t *testing.T) {
	propGrid(t, func(t *testing.T, seed uint64, loss float64, n int) {
		w := newWorld(n, seed, loss)
		w.run(4*w.p.ProbeEvery + time.Duration(w.rand()%5)*propStep)
		limit := falseKillBound(w.p)
		if loss > 0 {
			limit -= 2 * w.p.ProbeEvery
		}
		silent := w.pick(0)
		// The longest silences are the ones that matter: draw from the top
		// half of the range, always short of the limit.
		quiet := limit/2 + time.Duration(w.rand()%uint64(limit/2/propStep))*propStep
		w.asleep[silent] = w.now.Add(quiet)
		w.run(quiet + w.p.SuspectAfter + 4*w.p.ProbeEvery)
		if dead := w.buried(0); len(dead) > 0 {
			t.Errorf("silent for %v (< %v): %+v", quiet, limit, dead[0])
		}
	})
}

// TestOneBrokenLinkNeverKills: a member that one prober alone cannot reach
// is answered for by the proxies. On a clean network it is never even
// suspected; with messages being lost the lone accuser may come to suspect
// it, and even find a proxy whose relay was lost to agree, but the suspicion
// is refuted long before its budget — the full SuspectAfter for an accuser
// on its own — runs out.
func TestOneBrokenLinkNeverKills(t *testing.T) {
	propGrid(t, func(t *testing.T, seed uint64, loss float64, n int) {
		w := newWorld(n, seed, loss)
		// Cut a off from a member its ring reaches within a few rounds, so
		// that a large group need not be run through a whole pass.
		a := w.pick(0)
		ring := w.dets[a].ring
		b := ring[int(w.rand()%4)%len(ring)]
		w.cut = func(from, to wire.NodeID) bool { return (from == a && to == b) || (from == b && to == a) }
		w.run(time.Duration(min(n, 8)+8)*w.p.ProbeEvery + w.p.SuspectAfter)
		if dead := w.buried(0); len(dead) > 0 {
			t.Errorf("link %d-%d cut: %+v", a, b, dead[0])
		}
		if loss == 0 {
			for _, r := range w.log {
				if r.kind == "suspect" {
					t.Errorf("link %d-%d cut on a clean network: %+v", a, b, r)
					break
				}
			}
		}
	})
}

// TestLateTickAccusesNobody: a prober that stalls for d — a GC pause, a
// stolen timeslice — escalates nothing when it runs again that it would not
// have escalated on time. Alone, it finds its acks queued and handles them
// before its timers. Stalled together with everyone else (simulated nodes
// share a process) it finds nothing queued, and only the allowance it grants
// its deadlines for its own lateness keeps it from accusing peers that never
// had the chance to answer; that takes a stall it can tell from an ordinary
// wait, two rounds or more. On a clean network, on time, nothing escalates
// at all, so nothing may escalate here.
func TestLateTickAccusesNobody(t *testing.T) {
	propGrid(t, func(t *testing.T, seed uint64, loss float64, n int) {
		if loss > 0 {
			return // lost acks escalate on time too; nothing to compare with
		}
		for _, everyone := range []bool{false, true} {
			w := newWorld(n, seed, 0)
			w.run(4*w.p.ProbeEvery + time.Duration(w.rand()%5)*propStep)
			stall := 2*w.p.ProbeEvery + time.Duration(w.rand()%uint64(w.p.SuspectAfter/propStep))*propStep
			sleepers := []wire.NodeID{w.pick(0)}
			if everyone {
				sleepers = w.ids
			}
			for _, id := range sleepers {
				w.asleep[id] = w.now.Add(stall)
			}
			w.run(stall + w.p.SuspectAfter/2)
			// A lone sleeper may well be accused by the others, and refute;
			// what it must not do is accuse.
			for _, r := range w.log {
				if (everyone || r.node == sleepers[0]) && r.kind != "refute" {
					t.Errorf("stall of %v (everyone=%v): %+v", stall, everyone, r)
					break
				}
			}
		}
	})
}

// TestAccusersCountOncePerFrom: a suspicion's confirmations are its distinct
// first-hand accusers, however many members relay each accusation.
func TestAccusersCountOncePerFrom(t *testing.T) {
	d := New(Config{Self: 1, Seed: 1, Params: propParams()})
	d.SetMembers([]wire.NodeID{1, 2, 3, 4, 5, 6, 7})
	now := time.Unix(1, 0)
	hear := func(relay, accuser wire.NodeID) {
		m := Message{Kind: mAck, From: relay, Updates: []Update{{Node: 7, Status: Suspect, From: accuser}}}
		if _, err := d.Handle(now, EncodeMessage(&m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, relay := range []wire.NodeID{2, 3, 4} {
		hear(relay, 2)
	}
	if got := d.members[7].accusers; len(got) != 1 {
		t.Fatalf("one accusation relayed by three members counts %d times: %v", len(got), got)
	}
	hear(2, 3)
	hear(5, 3)
	hear(5, 4)
	if got := d.members[7].accusers; len(got) != 3 {
		t.Fatalf("three accusers, echoes and all, count as %v", got)
	}
	// Hearsay, however well corroborated, waits the full budget here.
	if got := d.verdictAt(d.members[7]).Sub(now); got != d.cfg.SuspectAfter {
		t.Fatalf("hearsay verdict after %v, want SuspectAfter", got)
	}
}

// TestBudgetShrinksWithAccusers pins the suspicion budget: SuspectAfter for
// a lone accuser (and for any in a group with nobody else to ask),
// SuspectAfter/4 once IndirectFanout members agree, monotone in between.
func TestBudgetShrinksWithAccusers(t *testing.T) {
	budgets := func(members int) []time.Duration {
		d := New(Config{Self: 1, Seed: 1, Params: propParams()})
		ids := make([]wire.NodeID, members)
		for i := range ids {
			ids[i] = wire.NodeID(i + 1)
		}
		d.SetMembers(ids)
		var out []time.Duration
		for c := 0; c <= 4; c++ {
			out = append(out, d.budget(c))
		}
		return out
	}
	sa := propParams().SuspectAfter
	for members, want := range map[int][]time.Duration{
		2:  {sa, sa, sa, sa, sa},
		3:  {sa, sa / 4, sa / 4, sa / 4, sa / 4},
		4:  {sa, 0, sa / 4, sa / 4, sa / 4},
		64: {sa, 0, 0, sa / 4, sa / 4},
	} {
		got := budgets(members)
		for c := range want {
			switch {
			case want[c] != 0 && got[c] != want[c]:
				t.Errorf("%d members, %d confirmations: budget %v, want %v", members, c, got[c], want[c])
			case want[c] == 0 && !(got[c] < got[c-1] && got[c] > sa/4):
				t.Errorf("%d members, %d confirmations: budget %v not strictly between %v and %v", members, c, got[c], sa/4, got[c-1])
			}
		}
	}
}

// TestStalePacketDoesNotResurrect: the last packets of a crashed member can
// arrive after the verdict on it. They must not undo it — dead yields only
// to alive at a higher incarnation — while a member buried by mistake is told
// so in the reply to its next message and returns by refuting.
func TestStalePacketDoesNotResurrect(t *testing.T) {
	w := newWorld(4, 1, 0)
	w.run(4 * w.p.ProbeEvery)
	const victim = wire.NodeID(3)
	// A ping the victim sent before it died, still on the wire.
	stale := EncodeMessage(&Message{Kind: mPing, From: victim, Seq: 99})
	w.down[victim] = true
	for !w.confirmed(victim) {
		w.advance()
	}
	if _, err := w.dets[1].Handle(w.now, stale); err != nil {
		t.Fatal(err)
	}
	if st := w.dets[1].Status(victim); st != Dead {
		t.Fatalf("a pre-crash ping moved the victim from dead to %v", st)
	}

	// Now the burial was a mistake: the member lives, and runs again.
	w.down[victim] = false
	w.run(time.Duration(len(w.ids)+2) * w.p.ProbeEvery)
	for _, id := range w.ids {
		if id != victim && w.dets[id].Status(victim) != Alive {
			t.Errorf("member %d still holds the live member %v", id, w.dets[id].Status(victim))
		}
	}
	if w.dets[victim].selfInc == 0 {
		t.Error("the buried member came back without refuting")
	}
}

// TestSuspicionCostIsConstant: confirming a death costs a number of
// messages that depends on IndirectFanout, not on the size of the group —
// accusations come from the proxies of the failed probe and from the ring
// probes that fail anyway, never from everyone probing the suspect.
func TestSuspicionCostIsConstant(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a 1024-member world")
	}
	// extra counts every message between a kill and the last verdict that
	// is not a ring ping or the ack it earns: ping-reqs and relayed pings
	// for the probes that hit the victim, pushes and their acks.
	extra := func(n int) int {
		w := newWorld(n, 7, 0)
		w.run(8 * w.p.ProbeEvery)
		victim := w.ids[n/2]
		w.down[victim] = true
		total, ring := 0, 0
		for start := w.now; !w.confirmed(victim); {
			if w.now.Sub(start) > 4*w.p.SuspectAfter {
				t.Fatalf("n=%d: victim never confirmed", n)
			}
			w.advance()
			for _, pk := range w.inflight {
				m, err := DecodeMessage(pk.payload)
				if err != nil {
					t.Fatal(err)
				}
				total++
				if m.Kind == mPing && m.Seq != 0 && m.Origin == 0 {
					ring++
				}
			}
		}
		return total - 2*ring
	}
	k := propParams().IndirectFanout
	small, large := extra(64), extra(1024)
	t.Logf("messages beyond ring probes to confirm one death: %d at 64 members, %d at 1024", small, large)
	if large > 160*k {
		t.Errorf("a suspicion among 1024 members cost %d extra messages, want <= %d (160 x IndirectFanout)", large, 160*k)
	}
	// The news takes a few rounds longer to cross the larger group, and
	// each round one more ring probe finds the victim; nothing else grows.
	if large > 4*small {
		t.Errorf("16x the members made a suspicion cost %d extra messages, up from %d: want < 4x", large, small)
	}
}

// FuzzDecodeMessage: DecodeMessage never panics, and what it accepts
// re-encodes to a message that decodes the same, accusers included.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(EncodeMessage(&Message{Kind: mPing, From: 1, Seq: 7}))
	f.Add(EncodeMessage(&Message{Kind: mAck, From: 2, Origin: 3, Seq: 9, Updates: []Update{
		{Node: 4, Status: Suspect, Inc: 2, From: 5},
		{Node: 4, Status: Suspect, Inc: 2, From: 6},
		{Node: 7, Status: Dead, Inc: 1},
	}}))
	f.Add([]byte{0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		again, err := DecodeMessage(EncodeMessage(&m))
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message: %+v vs %+v", m, again)
		}
	})
}
