package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"starfish/internal/chaosnet"
	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/leakcheck"
	"starfish/internal/wire"
)

// The chaos soak: an MPI job checkpointing to the replicated memory store
// runs to completion while a seeded chaosnet injects kills, partitions,
// message loss and delay spikes underneath it. The Ring application is
// self-verifying — Step fails unless the final value matches the fault-free
// result — so "status Done" certifies that the output is identical to an
// undisturbed run.
//
// Fault placement follows the recovery contract of each layer: the gcs and
// rstore planes repair loss themselves (sequenced-stream retransmission,
// request retries), so they absorb drops and delays; the MPI data plane is
// loss-free but dedupes by per-pair sequence number, so it absorbs
// duplication. Data-plane delay is applied in-line (no reordering).

// chaosScenario is one entry of the soak seed table.
type chaosScenario struct {
	name string
	seed int64
	// failAfter overrides the default 600ms detection budget (60 probes
	// at the soak's 10ms heartbeat).
	failAfter time.Duration
	// preset programs the fault plan after the cluster forms, before the
	// application is submitted.
	preset func(ctl *chaosnet.Controller)
	// script injects mid-run faults; it runs after the first recovery line
	// commits and returns when injection is done.
	script func(t *testing.T, c *Cluster)
	// verify asserts scenario-specific postconditions after completion.
	verify func(t *testing.T, c *Cluster, ctl *chaosnet.Controller)
}

const chaosApp wire.AppID = 77

func chaosRounds() int64 {
	if testing.Short() {
		return 6000
	}
	return 20000
}

// dataFaults is the data-plane fault mix used by the scenarios that inject
// there (duplication only: the data plane has no retransmission, so loss
// would wedge the job rather than exercise recovery).
var dataFaults = chaosnet.Faults{Dup: 0.02}

func runChaosScenario(t *testing.T, sc chaosScenario) {
	// Registered before the cluster exists so its cleanup runs after
	// Shutdown; slack covers runtime/testing helpers, not ours.
	leakcheck.Check(t, 4)
	failAfter := 600 * time.Millisecond
	if sc.failAfter > 0 {
		failAfter = sc.failAfter
	}
	c, err := New(Options{
		Nodes:          4,
		StoreDir:       t.TempDir(),
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      failAfter,
		ChaosSeed:      sc.seed,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	waitMainView(t, c, 4)
	ctl := c.Chaos()
	if ctl == nil {
		t.Fatal("cluster built without chaos controller")
	}
	if sc.preset != nil {
		sc.preset(ctl)
	}

	spec := ringSpec(chaosApp, 3, chaosRounds())
	spec.CkptEverySteps = 1000
	spec.Store = ckpt.StoreMemory
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if sc.script != nil {
		if _, err := c.WaitCommittedLine(chaosApp, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		sc.script(t, c)
	}
	info, err := c.WaitApp(chaosApp, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	ctl.Heal()
	ctl.ClearFaults()
	if sc.verify != nil {
		sc.verify(t, c, ctl)
	}
}

// verifyDataTraces checks the fixed-seed determinism contract end to end:
// every data-plane stream's recorded fault trace must equal the offline
// Replay of (seed, stream id) under the faults the scenario programmed.
// Data streams only come into existence after the preset runs, so their
// fault plan is constant over their whole index range.
func verifyDataTraces(t *testing.T, ctl *chaosnet.Controller, seed int64, f chaosnet.Faults) {
	t.Helper()
	n := 0
	for _, id := range ctl.Streams() {
		if !strings.HasPrefix(id.Addr, "data-") {
			continue
		}
		trace := ctl.Trace(id)
		if len(trace) == 0 {
			continue
		}
		want := chaosnet.Replay(seed, id, len(trace), f)
		if !bytes.Equal(trace, want) {
			t.Errorf("stream %v: trace diverges from replay (seed %#x)", id, seed)
		}
		n++
	}
	if n == 0 {
		t.Error("no data-plane streams recorded a trace")
	}
}

// evWait polls an event store until the query matches at least min
// records, then returns the matches. Event emission is asynchronous (a
// component's Emit returns before the record lands in the store), so
// at-least-N assertions must absorb the drain delay; the returned slice is
// the settled result for exact-count checks.
func evWait(t *testing.T, st *evstore.Store, query string, min int) []evstore.Record {
	t.Helper()
	q, err := evstore.ParseQuery(query)
	if err != nil {
		t.Fatalf("evWait %q: %v", query, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := st.Query(q)
		if len(recs) >= min || time.Now().After(deadline) {
			return recs
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crashRankNode kills node 3 (host of rank 2 under the round-robin
// placement over nodes 1..4) abruptly; the survivors must detect it and
// restart the rank from the last committed line.
func crashRankNode(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
}

func chaosScenarios() []chaosScenario {
	// Sequence-number watermarks captured by the scripts and read by the
	// verify steps: the event plane assigns seq at receive, so "after the
	// kill" is a seq comparison, not a wall-clock one.
	var killSeq, healSeq uint64
	return []chaosScenario{
		{
			// Randomized kill: a rank-hosting node dies mid-run with light
			// data-plane duplication underneath; recovery restores from the
			// replicated memory store (the crashed node's shard is gone).
			name: "kill",
			seed: 0x5EED0001,
			preset: func(ctl *chaosnet.Controller) {
				ctl.SetClassFaults("data", dataFaults)
			},
			script: func(t *testing.T, c *Cluster) {
				killSeq = c.ContactEvents().LastSeq()
				crashRankNode(t, c)
			},
			verify: func(t *testing.T, c *Cluster, ctl *chaosnet.Controller) {
				s := ctl.Stats()
				if s.Dups == 0 {
					t.Errorf("expected data duplication, stats = %+v", s)
				}
				verifyDataTraces(t, ctl, 0x5EED0001, dataFaults)
				// The survivor's event store tells the recovery story:
				// exactly one view change per kill (detection did not
				// flap), preceded by a suspicion, followed by a restore
				// from the replicated store.
				st := c.ContactEvents()
				vcs := evWait(t, st, fmt.Sprintf("component=gcs kind=view-change seq>%d", killSeq), 1)
				if len(vcs) != 1 {
					t.Errorf("%d view changes after the kill, want exactly 1:", len(vcs))
					for _, r := range vcs {
						t.Errorf("  %s", r.String())
					}
				}
				if len(evWait(t, st, fmt.Sprintf("component=gcs kind=suspect seq>%d", killSeq), 1)) == 0 {
					t.Error("no suspicion recorded after the kill")
				}
				// The SWIM detector drives that suspicion: its own records
				// must show the probe-level story — a suspicion raised and,
				// with no refutation from the dead node, a confirmation.
				if len(evWait(t, st, fmt.Sprintf("component=gossip kind=suspect seq>%d", killSeq), 1)) == 0 {
					t.Error("no gossip-level suspicion recorded after the kill")
				}
				if len(evWait(t, st, fmt.Sprintf("component=gossip kind=confirm-dead seq>%d", killSeq), 1)) == 0 {
					t.Error("no gossip confirm-dead recorded after the kill")
				}
				if len(evWait(t, st, fmt.Sprintf("component=proc kind=restore seq>%d", killSeq), 1)) == 0 {
					t.Error("no process restore recorded after the kill")
				}
			},
		},
		{
			// Partition + heal: node 4 (an rstore replica target, hosting no
			// rank) is symmetrically cut from every peer for longer than the
			// detection budget, forcing a view change and re-replication,
			// then healed. The job must finish on the surviving majority.
			name: "partition-heal",
			seed: 0x5EED0002,
			script: func(t *testing.T, c *Cluster) {
				ctl := c.Chaos()
				for _, peer := range []string{"n1", "n2", "n3"} {
					ctl.Partition("n4", peer)
				}
				time.Sleep(1500 * time.Millisecond)
				healSeq = c.ContactEvents().LastSeq()
				ctl.Heal()
			},
			verify: func(t *testing.T, c *Cluster, ctl *chaosnet.Controller) {
				s := ctl.Stats()
				if s.PartitionDrops == 0 && s.DialsBlocked == 0 {
					t.Errorf("partition injected no faults, stats = %+v", s)
				}
				d, err := c.Daemon(1)
				if err != nil {
					t.Fatal(err)
				}
				if v := d.View(); len(v.Members) != 3 || v.Contains(4) {
					t.Errorf("survivor view = %+v, want 3 members without node 4", v)
				}
				// Excluding node 4 must re-replicate its shard exactly
				// once, during the partition; the heal itself is a
				// non-event — no new view change, no re-replication storm
				// (rstore only re-replicates on view changes, and node 4
				// stays excluded).
				st := c.ContactEvents()
				if len(evWait(t, st, fmt.Sprintf("component=rstore kind=rereplicate seq<=%d", healSeq), 1)) == 0 {
					t.Error("no re-replication recorded while node 4 was partitioned out")
				}
				if recs := evWait(t, st, fmt.Sprintf("component=rstore kind=rereplicate seq>%d", healSeq), 0); len(recs) != 0 {
					t.Errorf("%d re-replication passes after the heal, want 0 (storm)", len(recs))
				}
				if recs := evWait(t, st, fmt.Sprintf("component=gcs kind=view-change seq>%d", healSeq), 0); len(recs) != 0 {
					t.Errorf("%d view changes after the heal, want 0", len(recs))
				}
				// Node 4 left the survivors' gossip membership with the view
				// change, so the healed link must not resurrect probe traffic
				// that reads as a fresh death.
				if recs := evWait(t, st, fmt.Sprintf("component=gossip kind=confirm-dead seq>%d", healSeq), 0); len(recs) != 0 {
					t.Errorf("%d gossip confirm-dead records after the heal, want 0", len(recs))
				}
			},
		},
		{
			// 5% loss on every control plane — the main sequencer, the
			// per-group sequencer streams and the replicated store — while a
			// rank-hosting node dies: gcs recovers casts and views through
			// sequenced-stream retransmission (the per-group streams are gcs
			// engines too, so scoped casts ride the same machinery), rstore
			// through request retries. The 60-probe detection budget keeps
			// random probe loss from reading as death.
			name: "loss5pct",
			seed: 0x5EED0003,
			preset: func(ctl *chaosnet.Controller) {
				ctl.SetClassFaults("gcs", chaosnet.Faults{Drop: 0.05})
				ctl.SetClassFaults("lwg", chaosnet.Faults{Drop: 0.05})
				ctl.SetClassFaults("rstore", chaosnet.Faults{Drop: 0.05})
				ctl.SetClassFaults("data", dataFaults)
			},
			script: crashRankNode,
			verify: func(t *testing.T, c *Cluster, ctl *chaosnet.Controller) {
				s := ctl.Stats()
				if s.Drops == 0 {
					t.Errorf("expected control-plane drops, stats = %+v", s)
				}
				verifyDataTraces(t, ctl, 0x5EED0003, dataFaults)
			},
		},
		{
			// 100ms delay spikes on the gcs plane: heartbeats arrive late in
			// bursts. A chaosnet delay sleeps in-line, so a spike also
			// head-of-line-blocks every queued message on the link; the
			// spike rate must keep the delayed share of link time well
			// under saturation (2% x 100ms against ~150 msg/s ≈ 30%), and
			// the detection budget (150 x 10ms probes = 1.5s) must absorb
			// chained spikes without reading them as death.
			name:      "delay-spikes",
			seed:      0x5EED0004,
			failAfter: 1500 * time.Millisecond,
			preset: func(ctl *chaosnet.Controller) {
				ctl.SetClassFaults("gcs", chaosnet.Faults{DelayProb: 0.02, Delay: 100 * time.Millisecond})
			},
			verify: func(t *testing.T, c *Cluster, ctl *chaosnet.Controller) {
				s := ctl.Stats()
				if s.Delays == 0 {
					t.Errorf("expected delay injections, stats = %+v", s)
				}
				for _, id := range c.Nodes() {
					d, err := c.Daemon(id)
					if err != nil {
						t.Fatal(err)
					}
					if v := d.View(); len(v.Members) != 4 {
						t.Errorf("node %d view = %+v: delay spikes caused a spurious view change", id, v)
					}
				}
				info, _ := c.AnyDaemon().AppInfo(chaosApp)
				if info.Gen != 1 {
					t.Errorf("app gen = %d: delay spikes caused a spurious restart", info.Gen)
				}
			},
		},
	}
}

// TestChaosSoak runs the full seed table. check.sh runs the two-seed short
// soak (`-short -run 'TestChaosSoak/(kill|loss5pct)'`); `make chaos` runs
// everything under -race.
func TestChaosSoak(t *testing.T) {
	for _, sc := range chaosScenarios() {
		t.Run(sc.name, func(t *testing.T) { runChaosScenario(t, sc) })
	}
}

// TestChaosTransparentLayer pins down that a chaos cluster with no faults
// programmed behaves exactly like a plain one: the decorator must be
// invisible when idle.
func TestChaosTransparentLayer(t *testing.T) {
	leakcheck.Check(t, 4)
	c, err := New(Options{
		Nodes:          3,
		StoreDir:       t.TempDir(),
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      600 * time.Millisecond,
		ChaosSeed:      0x5EED0099,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	waitMainView(t, c, 3)
	if err := c.Submit(ringSpec(chaosApp, 3, 200)); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(chaosApp, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
	s := c.Chaos().Stats()
	if s.Drops+s.Dups+s.Delays+s.PartitionDrops+s.DialsBlocked+s.DialsKilled+s.Resets != 0 {
		t.Errorf("idle chaos layer injected faults: %+v", s)
	}
}
