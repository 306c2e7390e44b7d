package cluster

import (
	"os"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/wire"
)

// TestMemoryStoreRecoveryWithoutDisk is the acceptance test of the
// replicated in-memory store: an application checkpointing to replicated
// RAM (k=2) survives a node crash and restarts from a surviving peer's
// memory with no disk involvement — the shared checkpoint directory is
// deleted outright before the crash to prove it.
func TestMemoryStoreRecoveryWithoutDisk(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)

	spec := ringSpec(40, 3, 300000)
	spec.Store = ckpt.StoreMemory
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	line, err := c.WaitCommittedLine(40, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, n := range line {
		if n > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("committed line %v has no real checkpoint", line)
	}
	// Nothing must have touched the disk store, and nothing may later: the
	// directory ceases to exist.
	if ns, _ := c.Store().List(40, 0); len(ns) != 0 {
		t.Fatalf("disk store has checkpoints %v for a memory-store app", ns)
	}
	if err := os.RemoveAll(c.Store().Dir()); err != nil {
		t.Fatal(err)
	}

	// Crash a node hosting a rank; the restart restores every rank from
	// surviving RAM replicas.
	info, ok := c.AnyDaemon().AppInfo(40)
	if !ok {
		t.Fatal("app vanished")
	}
	var victim wire.NodeID
	for _, node := range info.Placement {
		if node > victim {
			victim = node
		}
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}

	final, err := c.WaitApp(40, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", final.Status, final.Failure)
	}
	if final.Gen < 2 {
		t.Errorf("gen = %d, want a restart", final.Gen)
	}
	for r, n := range final.Placement {
		if n == victim {
			t.Errorf("rank %d still on crashed node %d", r, n)
		}
	}
	// The surviving memory stores still hold the images the restart used.
	total := 0
	for _, id := range c.Nodes() {
		mem, err := c.MemStore(id)
		if err != nil {
			t.Fatal(err)
		}
		st := mem.Stats()
		total += st.Images
	}
	if total == 0 {
		t.Error("no in-memory checkpoint images on any survivor")
	}
}

// TestDeltaRecoveryMidRun is the acceptance test of delta capture under
// churn: a write-tracking VM job checkpointing records to replicated RAM is
// killed while its committed line points at carry lists several epochs past
// the records that carry the whole first images, and the restart must
// assemble each image from the slots they name on surviving replicas.
func TestDeltaRecoveryMidRun(t *testing.T) {
	heapCountStop.Store(false)
	c := newCluster(t, 3)
	waitMainView(t, c, 3)

	spec := heapCountSpec(42, 3, ckpt.StopAndSync, ckpt.StoreMemory)
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}

	// Wait until the committed line is genuinely mid-run: at least two
	// records past the first on every rank.
	deadline := time.Now().Add(30 * time.Second)
	var line ckpt.RecoveryLine
	for {
		var err error
		if line, err = c.WaitCommittedLine(42, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		low := ^uint64(0)
		for _, n := range line {
			low = min(low, n)
		}
		if low >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("committed line %v never advanced past the first records", line)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every rank's committed record names other slots: the restart cannot
	// read its image from one record.
	mem, err := c.MemStore(1)
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range line {
		b, err := mem.GetEnvelope(42, r, n)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ckpt.DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Names) == 0 {
			t.Errorf("rank %d: committed record #%d names no other slot", r, n)
		}
	}
	if recs := epochRecords(t, c, 42); len(recs) < 3*3 {
		t.Fatalf("%d ckpt/epoch records for three epochs of three ranks", len(recs))
	}
	killAndFinish(t, c, 42)
}

// TestTieredStoreSpillsAndRecovers runs an application on the tiered
// backend: checkpoints commit at RAM speed but spill to disk in the
// background, so both tiers can serve the restart.
func TestTieredStoreSpillsAndRecovers(t *testing.T) {
	c := newCluster(t, 3)
	waitMainView(t, c, 3)

	spec := ringSpec(41, 3, 300000)
	spec.Store = ckpt.StoreTiered
	spec.CkptEverySteps = 2000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(41, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// The background spill lands the same images on disk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ns, _ := c.Store().List(41, 0)
		if len(ns) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tiered backend never spilled to disk")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(41, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", info.Status, info.Failure)
	}
}

// TestKillMiddleHostMovesOnlyWhatDied holds a failure restart to the rule
// the replicated store was built on: recovery reads the surviving replica
// where it lies, and a death moves only what it took. The middle of three
// hosting nodes dies under a memory-store job; exactly one rank may change
// node, at most one image may be fetched, re-replication may push no more
// images than lost a copy, and the redundancy it restores must be real — a
// second kill, of the restarted rank's new host, still recovers from RAM
// with the disk store deleted.
func TestKillMiddleHostMovesOnlyWhatDied(t *testing.T) {
	c := newCluster(t, 4)
	waitMainView(t, c, 4)

	// One explicit checkpoint round and no cadence: between the commit and
	// the kills no Put runs, so every push counted below is re-replication.
	const app = 43
	args := wire.NewWriter(20)
	args.I64(2500).I64(int64(time.Millisecond)).U32(256 << 10) // rounds, pace, ballast
	spec := ringSpec(app, 3, 0)
	spec.Args = args.Bytes()
	spec.Store = ckpt.StoreMemory
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStatus(app, daemon.StatusRunning, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.AnyDaemon().Checkpoint(app); err != nil {
		t.Fatal(err)
	}
	line, err := c.WaitCommittedLine(app, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(c.Store().Dir()); err != nil {
		t.Fatal(err)
	}
	before, _ := c.AnyDaemon().AppInfo(app)
	victim := before.Placement[1]
	if victim == before.Placement[0] || victim == before.Placement[2] {
		t.Fatalf("placement %v does not give rank 1 a node of its own", before.Placement)
	}

	storeSums := func() (fetches, pushes uint64) {
		for _, id := range c.Nodes() {
			mem, err := c.MemStore(id)
			if err != nil {
				t.Fatal(err)
			}
			st := mem.Stats()
			fetches, pushes = fetches+st.PeerFetches, pushes+st.Pushes
		}
		return fetches, pushes
	}
	lostCopies := uint64(0)
	mem, err := c.MemStore(victim)
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range line {
		if mem.Holds(app, r, n) {
			lostCopies++
		}
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	fetches0, pushes0 := storeSums() // survivors only: the victim is gone

	// waitRedundant blocks until the app runs in generation gen and every
	// image of the line is back at two live copies with nothing owed.
	waitRedundant := func(gen uint32) daemon.AppInfo {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			info, _ := c.AnyDaemon().AppInfo(app)
			ok := info.Gen == gen && info.Status == daemon.StatusRunning
			for r, n := range line {
				copies := 0
				for _, id := range c.Nodes() {
					mem, _ := c.MemStore(id)
					if mem.Holds(app, r, n) {
						copies++
					}
					ok = ok && mem.Stats().UnderReplicated == 0
				}
				ok = ok && copies >= 2
			}
			if ok {
				return info
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation %d never ran fully replicated (status %v gen %d)", gen, info.Status, info.Gen)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	after := waitRedundant(2)
	var moved []wire.Rank
	for r, node := range after.Placement {
		if node == victim {
			t.Errorf("rank %d still on crashed node %d", r, node)
		}
		if node != before.Placement[r] {
			moved = append(moved, r)
		}
	}
	if len(moved) != 1 || moved[0] != 1 {
		t.Errorf("ranks %v changed node (%v -> %v), want only rank 1", moved, before.Placement, after.Placement)
	}
	fetches1, pushes1 := storeSums()
	if fetches1-fetches0 > 1 {
		t.Errorf("restart fetched %d images from peers, want at most the lost rank's", fetches1-fetches0)
	}
	if pushes1-pushes0 > lostCopies {
		t.Errorf("re-replication pushed %d images, the death took %d copies", pushes1-pushes0, lostCopies)
	}

	// Redundancy really was restored: the restarted rank's new host dies
	// too, and the job still finishes from RAM alone.
	if err := c.Crash(after.Placement[1]); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitApp(app, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != daemon.StatusDone || final.Gen < 3 {
		t.Fatalf("status = %v, gen = %d, failure = %q; want done after a second restart", final.Status, final.Gen, final.Failure)
	}
}
