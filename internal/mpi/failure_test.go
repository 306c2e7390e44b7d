package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/vni"
	"starfish/internal/wire"
)

// TestSendRetriesAcrossPeerRestart verifies the crash-window semantics: a
// send to a peer whose NIC died blocks (retrying) rather than erroring,
// and completes once the peer comes back at the same address.
func TestSendRetriesAcrossPeerRestart(t *testing.T) {
	fn := vni.NewFastnet(0)
	nic0, err := vni.NewNIC(fn, "sr-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer nic0.Close()
	nic1, err := vni.NewNIC(fn, "sr-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[wire.Rank]string{0: "sr-0", 1: "sr-1"}
	c0, err := New(Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	// Establish the connection, then kill the peer's NIC.
	if err := c0.Send(1, 0, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	nic1.Close()
	fn.Crash("sr-1")

	var sendDone atomic.Bool
	go func() {
		// This send must stall, then succeed after the peer restarts.
		if err := c0.Send(1, 0, []byte("during-outage")); err == nil {
			sendDone.Store(true)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if sendDone.Load() {
		t.Fatal("send completed while peer was down")
	}

	// Peer restarts at the same address (same incarnation).
	nic1b, err := vni.NewNIC(fn, "sr-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer nic1b.Close()
	c1, err := New(Config{App: 1, Rank: 1, Size: 2, NIC: nic1b, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	data, _, err := c1.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "during-outage" {
		t.Errorf("got %q", data)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !sendDone.Load() {
		if time.Now().After(deadline) {
			t.Fatal("send never completed after peer restart")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendToDeadPeerAfterOutage verifies the other resolution: the runtime
// marks the rank dead and the stalled send fails with ErrPeerDead.
func TestSendToDeadPeerAfterOutage(t *testing.T) {
	fn := vni.NewFastnet(0)
	nic0, _ := vni.NewNIC(fn, "sd-0", 0)
	defer nic0.Close()
	nic1, _ := vni.NewNIC(fn, "sd-1", 0)
	addrs := map[wire.Rank]string{0: "sd-0", 1: "sd-1"}
	c0, err := New(Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c0.Send(1, 0, []byte("pre"))
	nic1.Close()
	fn.Crash("sd-1")

	errc := make(chan error, 1)
	go func() { errc <- c0.Send(1, 0, []byte("stalls")) }()
	time.Sleep(20 * time.Millisecond)
	c0.SetDead(1) // the daemon's view change arrives
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDead) {
			t.Errorf("err = %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled send never resolved")
	}
}

// TestCloseResolvesStalledSend: aborting the process (comm close) unblocks
// a send stalled on a dead link.
func TestCloseResolvesStalledSend(t *testing.T) {
	fn := vni.NewFastnet(0)
	nic0, _ := vni.NewNIC(fn, "sc-0", 0)
	defer nic0.Close()
	nic1, _ := vni.NewNIC(fn, "sc-1", 0)
	addrs := map[wire.Rank]string{0: "sc-0", 1: "sc-1"}
	c0, err := New(Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	c0.Send(1, 0, []byte("pre"))
	nic1.Close()
	fn.Crash("sc-1")

	errc := make(chan error, 1)
	go func() { errc <- c0.Send(1, 0, []byte("stalls")) }()
	time.Sleep(20 * time.Millisecond)
	c0.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled send never resolved")
	}
}

func TestStageTimerIntegration(t *testing.T) {
	timer := vni.NewStageTimer()
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 0 {
			cfg.Timer = timer
		}
	})
	for i := 0; i < 10; i++ {
		if err := comms[0].Send(1, 0, []byte("tick")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := comms[1].Recv(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if timer.Count(vni.StageMPISend) != 10 || timer.Count(vni.StageVNISend) != 10 {
		t.Errorf("send stages: mpi=%d vni=%d, want 10 each",
			timer.Count(vni.StageMPISend), timer.Count(vni.StageVNISend))
	}
	// Receive-side stages are recorded on the receiver, which has no
	// timer here; send a message the other way through a timed receiver.
	comms2 := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.Timer = timer
		}
	})
	comms2[0].Send(1, 0, []byte("x"))
	if _, _, err := comms2[1].Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	if timer.Count(vni.StageVNIRecv) == 0 || timer.Count(vni.StageMPIRecv) == 0 {
		t.Errorf("recv stages not recorded: vni=%d mpi=%d",
			timer.Count(vni.StageVNIRecv), timer.Count(vni.StageMPIRecv))
	}
}

func TestWaitAllAggregatesErrors(t *testing.T) {
	comms := world(t, 2)
	good := comms[0].Isend(1, 0, []byte("fine"))
	bad := comms[0].Isend(9, 0, []byte("bad rank"))
	if err := WaitAll(good, bad); !errors.Is(err, ErrBadRank) {
		t.Errorf("WaitAll error = %v, want ErrBadRank", err)
	}
	if _, _, err := comms[1].Recv(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSetCountsAndDuplicateSuppression(t *testing.T) {
	// A restored receiver that already consumed 2 messages from rank 0 seeds
	// its counts through Config, before the progress engine starts.
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.RecvCounts = map[wire.Rank]uint64{0: 2}
		}
	})
	// Sender replays its log: seqs 1..3; the first two must be dropped.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := comms[0].Replay(RecordedMsg{
			Dst: 1, Tag: 5, Data: []byte{byte(seq)}, Seq: seq, Interval: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, st, err := comms[1].Recv(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 3 || st.Source != 0 {
		t.Errorf("got seq-%d message, want seq-3", data[0])
	}
	if _, ok := comms[1].Iprobe(wire.AnyRank, wire.AnyTag); ok {
		t.Error("duplicates were not suppressed")
	}
}

func TestSentLogCapture(t *testing.T) {
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 0 {
			cfg.LogSends = true
		}
	})
	comms[0].SetInterval(4)
	comms[0].Send(1, 7, []byte("logged-a"))
	comms[0].Send(1, 8, []byte("logged-b"))
	log := comms[0].TakeSentLog()
	if len(log) != 2 {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[0].Dst != 1 || log[0].Tag != 7 || log[0].Seq != 1 || log[0].Interval != 4 {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[1].Seq != 2 || string(log[1].Data) != "logged-b" {
		t.Errorf("log[1] = %+v", log[1])
	}
	// Taking clears.
	if len(comms[0].TakeSentLog()) != 0 {
		t.Error("TakeSentLog did not clear")
	}
	// Drain receiver.
	comms[1].Recv(0, 7)
	comms[1].Recv(0, 8)
}
