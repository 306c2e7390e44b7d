package gossip

import (
	"bytes"
	"testing"
	"time"

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
		for _, env := range s.peers[id].Tick(s.now) {
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
				for _, env := range s.peers[id].Tick(s.now) {
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
			{Node: 2, Status: Suspect, Inc: 5},
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
	if len(out) != 1 {
		t.Fatalf("want 1 ack, got %d envelopes", len(out))
	}
	ack, err := DecodeMessage(out[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range ack.Updates {
		if u.Node == 1 && u.Status == Alive && u.Inc == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ack does not carry the alive@5 refutation: %+v", ack.Updates)
	}
}
