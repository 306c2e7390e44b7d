package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/lwg"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

func newCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Options{
		Nodes:    nodes,
		StoreDir: t.TempDir(),
		Logf:     t.Logf,
		// Generous failure detection: the suite runs many simulated
		// nodes on few cores, often under the race detector's ~10x
		// slowdown, and transient scheduler starvation must not read as
		// node death.
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func waitMainView(t *testing.T, c *Cluster, members int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, id := range c.Nodes() {
			d, err := c.Daemon(id)
			if err != nil || len(d.View().Members) != members {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("view never reached %d members at every daemon", members)
}

func ringSpec(id wire.AppID, ranks int, rounds int64) proc.AppSpec {
	return proc.AppSpec{
		ID: id, Name: apps.RingName, Args: apps.RingArgs(rounds),
		Ranks: ranks, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyRestart,
	}
}

func TestClusterFormsView(t *testing.T) {
	c := newCluster(t, 4)
	waitMainView(t, c, 4)
	d, err := c.Daemon(3)
	if err != nil {
		t.Fatal(err)
	}
	v := d.View()
	if len(v.Members) != 4 || v.Coord != 1 {
		t.Errorf("view = %v", v)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	if err := c.Submit(ringSpec(1, 3, 50)); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	// Placement spread ranks over all three nodes.
	nodes := map[wire.NodeID]bool{}
	for _, n := range info.Placement {
		nodes[n] = true
	}
	if len(nodes) != 3 {
		t.Errorf("placement = %v", info.Placement)
	}
}

func TestMoreRanksThanNodes(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	if err := c.Submit(ringSpec(2, 5, 30)); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(2, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestJacobiDistributedMatchesSequential(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := proc.AppSpec{
		ID: 3, Name: apps.JacobiName, Args: apps.JacobiArgs(64, 200, 1, 0),
		Ranks: 3, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyRestart,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestSystemInitiatedCheckpoint(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(4, 3, 5000)
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	c.WaitStatus(4, daemon.StatusRunning, 10*time.Second)
	if err := c.AnyDaemon().Checkpoint(4); err != nil {
		t.Fatal(err)
	}
	line, err := c.WaitCommittedLine(4, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for r := wire.Rank(0); r < 3; r++ {
		if line[r] == 0 {
			t.Errorf("line = %v", line)
		}
	}
	if _, err := c.WaitApp(4, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAutoRestart(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(5, 3, 300000)
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Let it checkpoint at least once, then kill a worker node.
	if _, err := c.WaitCommittedLine(5, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	// The app must restart on the survivors and still finish correctly
	// (the ring app self-verifies).
	info, err := c.WaitApp(5, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	if info.Gen < 2 {
		t.Errorf("gen = %d, want >= 2 (restart happened)", info.Gen)
	}
	for r, n := range info.Placement {
		if n == 3 {
			t.Errorf("rank %d still placed on crashed node", r)
		}
	}
}

// TestCrashDuringLaunch kills a rank-hosting node immediately after the
// submit, racing the crash against the app's formation handshake. The
// placed node may die before its lightweight join ever sequences; failure
// handling must key off rank placement, not just lightweight membership,
// or no restart fires and the app waits forever for the dead node's join.
func TestCrashDuringLaunch(t *testing.T) {
	c := newCluster(t, 4)
	waitMainView(t, c, 4)
	spec := ringSpec(5, 3, 5000)
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// No waiting: the whole point is to hit the launch window.
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(5, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	for r, n := range info.Placement {
		if n == 3 {
			t.Errorf("rank %d finished on crashed node", r)
		}
	}
}

// TestCrashCreatorDuringLaunch crashes the node that creates the app's
// stream (lwg.Creator over its placement hosts) right after the submit has
// applied, while the other hosts wait for its contact or join through it.
// The lost creator is handled like any host lost before its join: the
// restart policy relaunches the app, which finishes with the exact value.
// The app ids pick each of the three hosts as the creator in turn.
func TestCrashCreatorDuringLaunch(t *testing.T) {
	for _, app := range []wire.AppID{30, 31, 32} {
		app := app
		t.Run(fmt.Sprintf("app=%d", app), func(t *testing.T) {
			c := newCluster(t, 4)
			waitMainView(t, c, 4)
			if err := c.Submit(ringSpec(app, 3, 5000)); err != nil {
				t.Fatal(err)
			}
			// Every daemon must hold the app before its creator goes, or
			// the submit could die with the node it was cast from.
			var info daemon.AppInfo
			deadline := time.Now().Add(10 * time.Second)
			for _, id := range c.Nodes() {
				d, err := c.Daemon(id)
				if err != nil {
					t.Fatal(err)
				}
				ok := false
				for info, ok = d.AppInfo(app); !ok; info, ok = d.AppInfo(app) {
					if time.Now().After(deadline) {
						t.Fatalf("node %d never applied the submit", id)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			hosts := make([]wire.NodeID, 0, len(info.Placement))
			for _, n := range info.Placement {
				hosts = append(hosts, n)
			}
			creator := lwg.Creator(app, hosts)
			t.Logf("crashing creator %d of hosts %v while the app is %v", creator, hosts, info.Status)
			if err := c.Crash(creator); err != nil {
				t.Fatal(err)
			}
			info, err := c.WaitApp(app, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status != daemon.StatusDone {
				t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
			}
			for r, n := range info.Placement {
				if n == creator {
					t.Errorf("rank %d finished on the crashed creator", r)
				}
			}
		})
	}
}

func TestCrashAutoRestartIndependent(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(6, 3, 300000)
	spec.Protocol = ckpt.Independent
	spec.CkptEverySteps = 1075
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Wait until every rank has an independent checkpoint.
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for r := wire.Rank(0); r < 3; r++ {
			if ns, _ := c.Store().List(6, r); len(ns) == 0 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no independent checkpoints")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(6, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestCrashKillPolicy(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(7, 3, 1<<40)
	spec.Policy = proc.PolicyKill
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	c.WaitStatus(7, daemon.StatusRunning, 10*time.Second)
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(7, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusFailed {
		t.Fatalf("status = %v, want failed", info.Status)
	}
	// Every survivor records the failure once, as it records one on every
	// other path to failed.
	const failed = "component=daemon kind=app-failed app=7"
	for _, id := range c.Nodes() {
		ev, err := c.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		evWait(t, ev, failed, 1)
		time.Sleep(50 * time.Millisecond)
		if recs := evWait(t, ev, failed, 1); len(recs) != 1 {
			t.Errorf("node %d holds %d app-failed records, want 1: %v", id, len(recs), recs)
		}
	}
}

func TestCrashNotifyRepartition(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := proc.AppSpec{
		ID: 8, Name: apps.PartitionName, Args: apps.PartitionArgs(600, 3000),
		Ranks: 3, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyNotify,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	c.WaitStatus(8, daemon.StatusRunning, 10*time.Second)
	time.Sleep(20 * time.Millisecond) // let some chunks complete
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(8, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestCrashNotifyBeforeJoin: under PolicyNotify, a rank whose host is lost
// before its CmdJoin applied is accounted for like any lost rank — the
// survivors start, see the departure upcall, and finish. The host, not the
// stream's creator, is crashed before the submit, which places a rank on it
// while the view still holds it; its join never comes.
func TestCrashNotifyBeforeJoin(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	const lost = wire.NodeID(3)
	app := wire.AppID(60)
	for lwg.Creator(app, []wire.NodeID{1, 2, 3}) == lost {
		app++
	}
	spec := proc.AppSpec{
		ID: app, Name: apps.PartitionName, Args: apps.PartitionArgs(600, 3000),
		Ranks: 3, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyNotify,
	}
	if err := c.Crash(lost); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(app, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	placed := false
	for _, n := range info.Placement {
		placed = placed || n == lost
	}
	if !placed {
		t.Fatalf("placement %v has no rank on node %d: the submit applied after its removal", info.Placement, lost)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestMigrateToNewNode(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	// Pace the ring: the first recovery line commits at round 40 (~80ms
	// in), leaving ~900ms of remaining runtime for the suspend cast to
	// land. An unthrottled ring can finish all its rounds inside the
	// few-ms gap between the commit poll and the cast.
	spec := ringSpec(9, 2, 500)
	spec.Args = apps.RingArgsPaced(500, 2*time.Millisecond)
	spec.CkptEverySteps = 40
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(9, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Freeze the app while the cluster grows, so it cannot complete
	// before the migration command lands.
	if err := c.AnyDaemon().Suspend(9); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStatus(9, daemon.StatusSuspended, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	newID, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	waitMainView(t, c, 3)
	if err := c.AnyDaemon().Migrate(9); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(9, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	// The ring has 2 ranks over 3 nodes; round-robin placement uses nodes
	// 1 and 2... migration proves itself by gen bump and completion.
	if info.Gen < 2 {
		t.Errorf("gen = %d, want >= 2", info.Gen)
	}
	_ = newID
}

func TestSuspendResume(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	if err := c.Submit(ringSpec(10, 2, 2000)); err != nil {
		t.Fatal(err)
	}
	c.WaitStatus(10, daemon.StatusRunning, 10*time.Second)
	if err := c.AnyDaemon().Suspend(10); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStatus(10, daemon.StatusSuspended, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.AnyDaemon().Resume(10); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(10, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestDeleteApp(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	if err := c.Submit(ringSpec(11, 2, 1<<40)); err != nil {
		t.Fatal(err)
	}
	c.WaitStatus(11, daemon.StatusRunning, 10*time.Second)
	if err := c.AnyDaemon().Delete(11); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := c.AnyDaemon().AppInfo(11); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("app still known after delete")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicatedParams(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	if err := c.AnyDaemon().SetParam("scheduler", "fifo"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range c.Nodes() {
		d, _ := c.Daemon(id)
		for d.Param("scheduler") != "fifo" {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw the parameter", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestDisabledNodeExcludedFromPlacement(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	if err := c.AnyDaemon().SetNodeEnabled(2, false); err != nil {
		t.Fatal(err)
	}
	// Give the command time to replicate everywhere.
	time.Sleep(50 * time.Millisecond)
	if err := c.Submit(ringSpec(12, 3, 20)); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(12, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	for r, n := range info.Placement {
		if n == 2 {
			t.Errorf("rank %d placed on disabled node 2", r)
		}
	}
}

func TestGracefulLeaveTriggersPolicy(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	spec := ringSpec(13, 3, 300000)
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(13, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// A graceful leave also removes a hosting node; the app restarts.
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(13, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

func TestTwoAppsDifferentProtocolsSideBySide(t *testing.T) {
	// The paper's explicit goal: multiple C/R protocols running side by
	// side in one framework.
	c := newCluster(t, 3)
	waitMainView(t, c, 3)
	sfs := ringSpec(14, 3, 800)
	sfs.CkptEverySteps = 30
	cl := ringSpec(15, 3, 800)
	cl.Protocol = ckpt.ChandyLamport
	cl.CkptEverySteps = 30
	ind := ringSpec(16, 3, 800)
	ind.Protocol = ckpt.Independent
	ind.CkptEverySteps = 30
	for _, s := range []proc.AppSpec{sfs, cl, ind} {
		if err := c.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []wire.AppID{14, 15, 16} {
		info, err := c.WaitApp(id, 40*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != daemon.StatusDone {
			t.Fatalf("app %d: status = %v, failure = %q", id, info.Status, info.Failure)
		}
	}
	// Both coordinated apps must have committed lines; the independent
	// one must have per-rank checkpoints.
	for _, id := range []wire.AppID{14, 15} {
		if _, err := c.Store().CommittedLine(id); err != nil {
			t.Errorf("app %d: %v", id, err)
		}
	}
	for r := wire.Rank(0); r < 3; r++ {
		if ns, _ := c.Store().List(16, r); len(ns) == 0 {
			t.Errorf("independent app rank %d has no checkpoints", r)
		}
	}
}

// gatedRing is the ring application held at its first step until the test
// opens the gate: a job that is running for as long as the test needs it to be.
type gatedRing struct {
	proc.App
}

const gatedRingName = "test-gated-ring"

var ringGate atomic.Bool

func init() {
	proc.Register(gatedRingName, func(args []byte) (proc.App, error) {
		ring, err := proc.NewApp(apps.RingName, args)
		return &gatedRing{ring}, err
	})
}

func (a *gatedRing) Step(ctx *proc.Ctx) (bool, error) {
	if !ringGate.Load() {
		time.Sleep(100 * time.Microsecond) // a step boundary: control messages keep flowing
		return false, nil
	}
	return a.App.Step(ctx)
}

// TestWaitStatusSeesTransientRunning: WaitStatus reports each of five
// consecutive short jobs running, and WaitApp reports them done. WaitStatus
// samples the current status, and an ungated 100-round ring is running for a
// few milliseconds — less than a descheduled test goroutine can miss — so
// the jobs are held in their first step until the status has been seen.
func TestWaitStatusSeesTransientRunning(t *testing.T) {
	c := newCluster(t, 2)
	waitMainView(t, c, 2)
	for i := 0; i < 5; i++ {
		id := wire.AppID(900 + i)
		ringGate.Store(false)
		spec := ringSpec(id, 2, 100)
		spec.Name = gatedRingName
		if err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitStatus(id, daemon.StatusRunning, 10*time.Second); err != nil {
			t.Errorf("app %d: %v", id, err)
		}
		ringGate.Store(true)
		if info, err := c.WaitApp(id, 20*time.Second); err != nil || info.Status != daemon.StatusDone {
			t.Fatalf("app %d: %v / %+v", id, err, info)
		}
	}
}
