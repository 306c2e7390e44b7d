package cluster

import (
	"testing"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// TestCrashClusterLeader kills node 1 — simultaneously the group
// coordinator (sequencer), the cluster leader (restart decisions), and the
// host of rank 0 (the checkpoint coordinator). The group must fail over,
// a new leader must drive the restart, and the application must finish.
func TestCrashClusterLeader(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(30, 3, 300000)
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(30, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(30, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	if info.Gen < 2 {
		t.Errorf("gen = %d, want restart", info.Gen)
	}
	// The surviving daemons agree node 2 now coordinates.
	d := c.AnyDaemon()
	if v := d.View(); v.Coord != 2 {
		t.Errorf("coordinator = %d, want 2", v.Coord)
	}
}

// TestCrashDuringCheckpointRound kills a node while a stop-and-sync round
// is (very likely) in flight. Whatever state the round was in, the restart
// must land on a consistent line and the application must finish
// correctly (the ring app self-verifies).
func TestCrashDuringCheckpointRound(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(31, 3, 300000)
	spec.CkptEverySteps = 500 // frequent rounds: the crash lands in one
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(31, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Trigger another round and crash immediately, racing the protocol.
	c.AnyDaemon().Checkpoint(31)
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(31, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestDoubleCrash kills two of five nodes in quick succession; the
// application restarts (possibly twice) and completes on the survivors.
func TestDoubleCrash(t *testing.T) {
	c := newCluster(t, 5)
	waitMainView(t, c, 5)
	spec := ringSpec(32, 5, 300000)
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(32, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Crash(5); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(32, 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	for r, n := range info.Placement {
		if n == 4 || n == 5 {
			t.Errorf("rank %d still on crashed node %d", r, n)
		}
	}
}

// TestRestartUsesHeterogeneousNodes verifies that a portable-encoder app
// restarted on a different node converts its checkpoint between the nodes'
// simulated architectures (the cluster assigns Table-2 machines
// round-robin, so re-placement changes architectures).
func TestRestartUsesHeterogeneousNodes(t *testing.T) {
	c := newCluster(t, 4)
	waitMainView(t, c, 4)
	vm := &proc.VMApp{StepSlice: 20, NGlobals: 2, Globals: []int64{0, 8000}, Source: `
loop:   loadg 1
        jz done
        loadg 0
        push 1
        add
        storeg 0
        loadg 1
        push 1
        sub
        storeg 1
        jmp loop
done:   halt`}
	spec := proc.AppSpec{
		ID: 33, Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 2,
		Protocol: ckpt.Independent, Encoder: ckpt.Portable,
		CkptEverySteps: 10, Policy: proc.PolicyRestart,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Wait for checkpoints, then kill node 2 (big-endian 32-bit Sun): the
	// VM images written there restore on other architectures.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ns0, _ := c.Store().List(33, 0)
		ns1, _ := c.Store().List(33, 1)
		if len(ns0) > 0 && len(ns1) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(33, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestIndependentSkewedCheckpointsRestart forces the ranks of an
// uncoordinated app to checkpoint at different cadences (rank-dependent
// intervals are impossible through the spec, so we trigger extra local
// checkpoints via the management path on top of a slow automatic cadence),
// then crashes and verifies the recovery line + sender-log replay produce
// a correct resumed run.
func TestIndependentSkewedCheckpointsRestart(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(34, 3, 300000)
	spec.Protocol = ckpt.Independent
	spec.CkptEverySteps = 1037 // odd cadence; ranks drift apart
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for r := wire.Rank(0); r < 3; r++ {
			if ns, _ := c.Store().List(34, r); len(ns) < 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoints too slow")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(34, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestChandyLamportCrashRestart exercises the third protocol under crash.
func TestChandyLamportCrashRestart(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(35, 3, 300000)
	spec.Protocol = ckpt.ChandyLamport
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(35, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(35, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestPingPongAppOnCluster runs the paper's latency application through
// the full stack.
func TestPingPongAppOnCluster(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	spec := proc.AppSpec{
		ID: 36, Name: apps.PingPongName,
		Args:  apps.PingPongArgs([]int{1, 1024}, 20, false),
		Ranks: 2, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyKill,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(36, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestRestoreKeepsReceiveOrder kills a node under a single-tag ring whose
// ranks each carry 4 MiB of state. Restores then take milliseconds and ranks
// finish them far apart, so a fast peer is already sending while a slow one
// still rebuilds its communicator: the checkpoint's pending and channel-state
// messages must be in the receive queue before anything new, or the ring
// consumes tokens out of order and ends a lap off. The ring verifies its
// exact final value.
func TestRestoreKeepsReceiveOrder(t *testing.T) {
	for episode := 0; episode < 2; episode++ {
		c := newCluster(t, 4)
		waitMainView(t, c, 4)
		id := wire.AppID(60 + episode)
		spec := ringSpec(id, 3, 60000)
		spec.Args = apps.RingArgsBallast(60000, 4<<20)
		spec.Store = ckpt.StoreMemory
		spec.CkptEverySteps = 3000
		if err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitCommittedLine(id, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		info, ok := c.AnyDaemon().AppInfo(id)
		if !ok {
			t.Fatal("app vanished")
		}
		if err := c.Crash(info.Placement[wire.Rank(1+episode%2)]); err != nil {
			t.Fatal(err)
		}
		final, err := c.WaitApp(id, 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != daemon.StatusDone || final.Gen < 2 {
			t.Fatalf("episode %d: status = %v, gen = %d, failure = %q", episode, final.Status, final.Gen, final.Failure)
		}
		c.Shutdown()
	}
}
