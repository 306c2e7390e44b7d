package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/vni"
	"starfish/internal/wire"
)

// world builds n communicators for app 1 over a private fastnet.
func world(t testing.TB, n int) []*Comm {
	t.Helper()
	return worldCfg(t, n, func(*Config) {})
}

func worldCfg(t testing.TB, n int, mod func(*Config)) []*Comm {
	t.Helper()
	fn := vni.NewFastnet(0)
	nics := make([]*vni.NIC, n)
	addrs := make(map[wire.Rank]string, n)
	for i := 0; i < n; i++ {
		nic, err := vni.NewNIC(fn, fmt.Sprintf("rank%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
		addrs[wire.Rank(i)] = nic.Addr()
		t.Cleanup(func() { nic.Close() })
	}
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		cfg := Config{App: 1, Rank: wire.Rank(i), Size: n, NIC: nics[i], Addrs: addrs}
		mod(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
		t.Cleanup(c.Close)
	}
	return comms
}

// runRanks runs fn concurrently on every rank and fails the test on error.
func runRanks(t *testing.T, comms []*Comm, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective deadlocked")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// waitDrained polls until c has received at least targets[r] data messages
// from every rank r, without consuming them.
func waitDrained(t *testing.T, c *Comm, targets map[wire.Rank]uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recv, drained := c.RecvCounts(), true
		for r, want := range targets {
			drained = drained && recv[r] >= want
		}
		if drained {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %v, want at least %v", recv, targets)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendRecvBasic(t *testing.T) {
	comms := world(t, 2)
	go func() {
		comms[0].Send(1, 7, []byte("hello rank 1"))
	}()
	data, st, err := comms[1].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello rank 1" || st.Source != 0 || st.Tag != 7 {
		t.Errorf("data=%q st=%+v", data, st)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	comms := world(t, 3)
	go comms[1].Send(0, 5, []byte("from1"))
	go comms[2].Send(0, 9, []byte("from2"))
	seen := map[wire.Rank]string{}
	for i := 0; i < 2; i++ {
		data, st, err := comms[0].Recv(wire.AnyRank, wire.AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		seen[st.Source] = string(data)
	}
	if seen[1] != "from1" || seen[2] != "from2" {
		t.Errorf("seen = %v", seen)
	}
}

func TestTagSelectivity(t *testing.T) {
	comms := world(t, 2)
	comms[0].Send(1, 1, []byte("one"))
	comms[0].Send(1, 2, []byte("two"))
	// Receive tag 2 first even though tag 1 arrived first.
	data, _, err := comms[1].Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Errorf("tag 2 recv = %q", data)
	}
	data, _, _ = comms[1].Recv(0, 1)
	if string(data) != "one" {
		t.Errorf("tag 1 recv = %q", data)
	}
}

func TestFIFOPerPair(t *testing.T) {
	comms := world(t, 2)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			comms[0].Send(1, 3, []byte{byte(i)})
		}
	}()
	for i := 0; i < n; i++ {
		data, _, err := comms[1].Recv(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Fatalf("position %d: got %d", i, data[0])
		}
	}
}

func TestProbeAndIprobe(t *testing.T) {
	comms := world(t, 2)
	if _, ok := comms[1].Iprobe(wire.AnyRank, wire.AnyTag); ok {
		t.Error("Iprobe on empty queue reported a message")
	}
	comms[0].Send(1, 42, []byte("probe me"))
	st, err := comms[1].Probe(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 42 {
		t.Errorf("probe status = %+v", st)
	}
	// Probe must not consume.
	if _, ok := comms[1].Iprobe(0, 42); !ok {
		t.Error("message consumed by Probe")
	}
	data, _, _ := comms[1].Recv(0, 42)
	if string(data) != "probe me" {
		t.Errorf("recv after probe = %q", data)
	}
}

func TestIsendIrecvWaitTest(t *testing.T) {
	comms := world(t, 2)
	req := comms[1].Irecv(0, 8)
	if req.Test() {
		t.Error("Irecv completed before any send")
	}
	sreq := comms[0].Isend(1, 8, []byte("async"))
	if err := WaitAll(sreq); err != nil {
		t.Fatal(err)
	}
	data, st, err := req.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "async" || st.Tag != 8 {
		t.Errorf("data=%q st=%+v", data, st)
	}
	if !req.Test() {
		t.Error("Test false after Wait")
	}
}

func TestSendErrors(t *testing.T) {
	comms := world(t, 2)
	if err := comms[0].Send(5, 0, nil); !errors.Is(err, ErrBadRank) {
		t.Errorf("send to rank 5: %v", err)
	}
	if err := comms[0].Send(-1, 0, nil); !errors.Is(err, ErrBadRank) {
		t.Errorf("send to rank -1: %v", err)
	}
	big := make([]byte, wire.MaxPayload+1)
	if err := comms[0].Send(1, 0, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized send: %v", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	comms := world(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, _, err := comms[1].Recv(0, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	comms[1].Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := comms[1].Send(0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestDeadPeer(t *testing.T) {
	comms := world(t, 3)
	comms[0].SetDead(2)
	if err := comms[0].Send(2, 0, nil); !errors.Is(err, ErrPeerDead) {
		t.Errorf("send to dead: %v", err)
	}
	if _, _, err := comms[0].Recv(2, 0); !errors.Is(err, ErrPeerDead) {
		t.Errorf("recv from dead: %v", err)
	}
	alive := comms[0].Alive()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 1 {
		t.Errorf("alive = %v", alive)
	}
	// A blocked Recv naming the rank must unblock when it is marked dead.
	errc := make(chan error, 1)
	go func() {
		_, _, err := comms[1].Recv(2, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	comms[1].SetDead(2)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDead) {
			t.Errorf("blocked recv: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Recv did not observe peer death")
	}
}

func TestCountsAndWaitDrained(t *testing.T) {
	comms := world(t, 2)
	for i := 0; i < 5; i++ {
		comms[0].Send(1, 0, []byte{byte(i)})
	}
	if _, sc, _ := comms[0].Cut(nil); sc[1] != 5 {
		t.Errorf("sent counts = %v", sc)
	}
	// All 5 are counted on arrival, before any is consumed.
	waitDrained(t, comms[1], map[wire.Rank]uint64{0: 5})
	if rc := comms[1].RecvCounts(); rc[0] != 5 {
		t.Errorf("recv counts = %v", rc)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := comms[1].Recv(0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIntervalStamping(t *testing.T) {
	var deps []string
	var mu sync.Mutex
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.OnReceive = func(src wire.Rank, iv uint64) {
				mu.Lock()
				deps = append(deps, fmt.Sprintf("%d@%d", src, iv))
				mu.Unlock()
			}
		}
	})
	comms[0].SetInterval(3)
	comms[0].Send(1, 0, []byte("x"))
	_, st, err := comms[1].Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Interval != 3 {
		t.Errorf("status interval = %d", st.Interval)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deps) != 1 || deps[0] != "0@3" {
		t.Errorf("deps = %v", deps)
	}
}

// TestOnReceiveAfterCount: OnReceive runs once the message is counted, under
// the communicator's lock, so whoever it wakes reads a count that includes
// the message — even while the callback has not returned.
func TestOnReceiveAfterCount(t *testing.T) {
	called := make(chan struct{})
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.OnReceive = func(wire.Rank, uint64) {
				close(called)
				time.Sleep(50 * time.Millisecond)
			}
		}
	})
	go comms[0].Send(1, 0, []byte("x"))
	<-called
	if rc := comms[1].RecvCounts(); rc[0] != 1 {
		t.Fatalf("recv counts = %v once OnReceive ran, want the message counted", rc)
	}
	if _, _, err := comms[1].Recv(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMarkersAndRecording(t *testing.T) {
	markerc := make(chan [2]uint64, 4)
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.OnMarker = func(src wire.Rank, id uint64) {
				markerc <- [2]uint64{uint64(src), id}
			}
		}
	})
	// Rank 1 snapshots and starts recording channel 0->1, then rank 0
	// sends two data messages followed by its marker: both messages are
	// pre-marker channel state.
	comms[1].Cut([]wire.Rank{0})
	comms[0].Send(1, 0, []byte("in-flight-1"))
	comms[0].Send(1, 0, []byte("in-flight-2"))
	comms[0].SendMarker(1, 9)

	select {
	case m := <-markerc:
		if m[0] != 0 || m[1] != 9 {
			t.Errorf("marker = %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("marker never arrived")
	}
	if still := comms[1].StopRecordingFrom(0); still {
		t.Error("recording should be finished")
	}
	rec := comms[1].TakeRecorded()
	if len(rec) != 2 || string(rec[0].Data) != "in-flight-1" || string(rec[1].Data) != "in-flight-2" {
		t.Fatalf("recorded = %+v", rec)
	}
	// Recorded messages are also delivered normally.
	for i := 0; i < 2; i++ {
		if _, _, err := comms[1].Recv(0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeededQueueOrder: the pending and channel-state messages a restarted
// rank seeds through Config are received before anything that arrives after
// construction, in checkpoint order, and channel state advances the receive
// counts while pending messages (already counted at the cut) do not.
func TestSeededQueueOrder(t *testing.T) {
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.RecvCounts = map[wire.Rank]uint64{0: 2}
			cfg.Pending = []RecordedMsg{{Src: 0, Tag: 0, Data: []byte("pending-1"), Seq: 1}, {Src: 0, Tag: 0, Data: []byte("pending-2"), Seq: 2}}
			cfg.ChannelState = []RecordedMsg{{Src: 0, Tag: 0, Data: []byte("channel-3"), Seq: 3}}
		} else {
			cfg.SentCounts = map[wire.Rank]uint64{1: 3}
		}
	})
	if got := comms[1].RecvCounts()[0]; got != 3 {
		t.Errorf("receive count after seeding = %d, want 3", got)
	}
	if err := comms[0].Send(1, 0, []byte("new-4")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pending-1", "pending-2", "channel-3", "new-4"} {
		data, _, err := comms[1].Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("received %q, want %q", data, want)
		}
	}
}

func TestMarkerIsFIFOWithData(t *testing.T) {
	// A message sent after the marker must not be recorded: marker and
	// data share the channel's FIFO order.
	var markerSeen atomic.Bool
	var late atomic.Bool
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.OnMarker = func(wire.Rank, uint64) { markerSeen.Store(true) }
			cfg.OnReceive = func(wire.Rank, uint64) {
				if markerSeen.Load() {
					late.Store(true)
				}
			}
		}
	})
	comms[1].Cut([]wire.Rank{0})
	comms[0].Send(1, 0, []byte("pre"))
	comms[0].SendMarker(1, 1)
	comms[0].Send(1, 0, []byte("post"))
	// Drain both messages.
	comms[1].Recv(0, 0)
	comms[1].Recv(0, 0)
	if !markerSeen.Load() {
		t.Fatal("marker lost")
	}
	// The recording should only hold "pre"... but StopRecordingFrom is
	// the C/R module's job; simulate it reacting to the marker callback
	// ordering: since handle() runs on one goroutine per channel, the
	// post message was processed after the marker. We can't stop
	// recording from the callback here (test simplification), so check
	// the arrival order instead.
	if !late.Load() {
		t.Error("post-marker message was processed before the marker (FIFO violated)")
	}
}

func TestNewBadConfig(t *testing.T) {
	if _, err := New(Config{Rank: 0, Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(Config{Rank: 5, Size: 2}); err == nil {
		t.Error("rank out of range accepted")
	}
}

func TestStaleAppTrafficIgnored(t *testing.T) {
	fn := vni.NewFastnet(0)
	nicA, _ := vni.NewNIC(fn, "a", 0)
	nicB, _ := vni.NewNIC(fn, "b", 0)
	defer nicA.Close()
	defer nicB.Close()
	addrs := map[wire.Rank]string{0: "a", 1: "b"}
	c, err := New(Config{App: 2, Rank: 1, Size: 2, NIC: nicB, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A message from app 1 (previous incarnation) must be dropped.
	nicA.Send("b", &wire.Msg{Type: wire.TData, App: 1, Src: 0, Dst: 1})
	nicA.Send("b", &wire.Msg{Type: wire.TData, App: 2, Src: 0, Dst: 1, Payload: []byte("current")})
	data, _, err := c.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "current" {
		t.Errorf("got %q", data)
	}
	if _, ok := c.Iprobe(wire.AnyRank, wire.AnyTag); ok {
		t.Error("stale message was queued")
	}
}

// TestCutCapturesPendingAndRecords: a Cut captures the queued messages as
// pending state without consuming them, and from then on records what
// arrives on the named channels, and only those, until the recording is
// taken.
func TestCutCapturesPendingAndRecords(t *testing.T) {
	comms := world(t, 3)
	// Two messages arrive and sit in the queue (pre-snapshot state).
	comms[1].Send(0, 0, []byte("pre-a"))
	comms[2].Send(0, 0, []byte("pre-b"))
	waitDrained(t, comms[0], map[wire.Rank]uint64{1: 1, 2: 1})

	// Snapshot: capture pending, record rank 2's channel but not rank 1's.
	pending, _, recv := comms[0].Cut([]wire.Rank{2})
	if len(pending) != 2 || recv[1] != 1 || recv[2] != 1 {
		t.Fatalf("pending = %+v, recv = %v", pending, recv)
	}
	comms[1].Send(0, 0, []byte("post-1"))
	comms[2].Send(0, 0, []byte("channel-state"))
	got := map[string]bool{}
	for i := 0; i < 4; i++ {
		data, _, err := comms[0].Recv(wire.AnyRank, wire.AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		got[string(data)] = true
	}
	for _, want := range []string{"pre-a", "pre-b", "post-1", "channel-state"} {
		if !got[want] {
			t.Errorf("missing %q in %v", want, got)
		}
	}
	rec := comms[0].TakeRecorded()
	if len(rec) != 1 || string(rec[0].Data) != "channel-state" {
		t.Errorf("recorded = %+v", rec)
	}
}
