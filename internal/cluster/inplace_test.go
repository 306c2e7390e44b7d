package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/proc"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// heapCount writes its iteration number into one heap word per iteration, at
// an address that sweeps the heap, until the count reaches the limit: every
// word of the final heap, the counter and the instruction count are functions
// of the count alone.
const heapCount = `
loop:   loadg 0
        loadg 1
        lt
        jz done         ; while count < limit
        loadg 2
        loadg 0
        storem          ; mem[addr] = count
        loadg 2
        push 1
        add
        loadg 3
        mod
        storeg 2        ; addr = (addr + 1) mod heap
        loadg 0
        push 1
        add
        storeg 0        ; count++
        jmp loop
done:   halt
`

const (
	heapCountName  = "test-heapcount"
	heapCountWords = 256 << 10
	heapCountIter  = 18 // instructions per iteration
	gCount, gLimit = 0, 1
)

// heapCountStop tells the ranks of the running heapCount job to finish.
var heapCountStop atomic.Bool

func init() {
	proc.Register(heapCountName, func(args []byte) (proc.App, error) {
		v, err := proc.DecodeVMApp(args)
		return &heapCountApp{VMApp: v}, err
	})
}

// heapCountApp is proc.VMApp (embedded, so the runtime sees its optional
// methods) running heapCount until the test says stop, and checking the whole
// machine when it halts.
type heapCountApp struct {
	*proc.VMApp
	stopped bool
}

func (a *heapCountApp) Step(ctx *proc.Ctx) (bool, error) {
	if !a.stopped && heapCountStop.Load() {
		// Between two iterations: let the program run one more and halt.
		a.stopped = true
		g := a.VM().Globals
		g[gLimit] = g[gCount] + 1
	}
	done, err := a.VMApp.Step(ctx)
	if done && err == nil {
		err = heapCountVerify(a.VM())
	}
	return done, err
}

// heapCountVerify fails unless m is exactly the machine that ran heapCount
// for as many iterations as its counter says.
func heapCountVerify(m *svm.VM) error {
	n := m.Globals[gCount]
	if n != m.Globals[gLimit] || !m.Halted {
		return fmt.Errorf("halted %v at count %d, limit %d", m.Halted, n, m.Globals[gLimit])
	}
	if want := uint64(n)*heapCountIter + 5; m.Steps != want {
		return fmt.Errorf("count %d after %d instructions, want %d", n, m.Steps, want)
	}
	want := make([]int64, len(m.Mem))
	for i := int64(0); i < n; i++ {
		want[i%int64(len(want))] = i
	}
	for a := range want {
		if m.Mem[a] != want[a] {
			return fmt.Errorf("count %d: heap word %d is %d, want %d", n, a, m.Mem[a], want[a])
		}
	}
	return nil
}

// TestHeapCountVerifies pins the check itself on an undisturbed machine.
func TestHeapCountVerifies(t *testing.T) {
	m := svm.New(svm.Machines[5], svm.MustAssemble(heapCount), 4)
	const heap, n = 100, 250
	m.Grow(heap)
	m.Globals[gLimit], m.Globals[3] = n, heap
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := heapCountVerify(m); err != nil {
		t.Fatal(err)
	}
	m.Mem[7]++
	if heapCountVerify(m) == nil {
		t.Fatal("a corrupted heap word verifies")
	}
}

// heapCountSpec is a job of heapCount ranks that runs until heapCountStop,
// checkpointing every 20 steps of 500 iterations, one heap chunk each.
func heapCountSpec(id wire.AppID, ranks int, protocol ckpt.Protocol, store ckpt.StoreKind) proc.AppSpec {
	return proc.AppSpec{
		ID: id, Name: heapCountName, Ranks: ranks,
		Args: proc.EncodeVMApp(&proc.VMApp{
			StepSlice: 500 * heapCountIter, Source: heapCount, NGlobals: 4,
			Globals: []int64{0, 1 << 30, 0, heapCountWords}, HeapWords: heapCountWords,
		}),
		Protocol: protocol, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
		Store: store, CkptEverySteps: 20,
	}
}

// epochRecords returns the ckpt/epoch records every node holds for app.
func epochRecords(t *testing.T, c *Cluster, app wire.AppID) []evstore.Record {
	t.Helper()
	q, err := evstore.ParseQuery(fmt.Sprintf("component=ckpt kind=epoch app=%d", app))
	if err != nil {
		t.Fatal(err)
	}
	var out []evstore.Record
	for _, id := range c.Nodes() {
		ev, err := c.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev.Query(q)...)
	}
	return out
}

// attr returns the numeric attribute k of an event record.
func attr(t *testing.T, r *evstore.Record, k string) uint64 {
	t.Helper()
	v, _ := r.Get(k)
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("%s record: %s = %q", r.Kind, k, v)
	}
	return n
}

// killAndFinish crashes the node hosting the highest-placed rank of a running
// heapCount job, waits for the job to restart, stops it and checks that it
// ends done, restarted and off the crashed node. heapCountApp checks every
// rank's counter, instruction count and heap when it halts.
func killAndFinish(t *testing.T, c *Cluster, app wire.AppID) {
	t.Helper()
	info, ok := c.AnyDaemon().AppInfo(app)
	if !ok {
		t.Fatal("app vanished")
	}
	var victim wire.NodeID
	for _, node := range info.Placement {
		victim = max(victim, node)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	// The job ends only once it has restarted: a survivor that finished
	// first would leave nothing to restore.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if info, ok := c.AnyDaemon().AppInfo(app); ok && info.Gen >= 2 && info.Status == daemon.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never restarted")
		}
	}
	heapCountStop.Store(true)

	final, err := c.WaitApp(app, 120*time.Second)
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
}

// TestInPlaceEpochsRecover: a write-tracking VM job checkpoints deltas — no
// setting asks for them — building every image from the third on in place in
// its two alternating buffers. After enough epochs that the newest records
// and the slots they name were written that way throughout, a node hosting a
// rank is killed, and the restarted job must end with every rank's counter,
// instruction count and heap exact. Once per protocol into replicated
// memory: stop-and-sync and independent capture on the rank's main loop,
// Chandy–Lamport on the MPI progress goroutine; and stop-and-sync into the
// disk store, whose every epoch after a rank's first must be a record smaller
// than its image, so the restart resolves carry lists on disk.
func TestInPlaceEpochsRecover(t *testing.T) {
	// stored epochs before the kill: the first two images are built fresh.
	const epochs = 6
	for i, cs := range []struct {
		name     string
		protocol ckpt.Protocol
		store    ckpt.StoreKind
	}{
		{"stop-and-sync", ckpt.StopAndSync, ckpt.StoreMemory},
		{"chandy-lamport", ckpt.ChandyLamport, ckpt.StoreMemory},
		{"independent", ckpt.Independent, ckpt.StoreMemory},
		{"stop-and-sync-disk", ckpt.StopAndSync, ckpt.StoreDisk},
	} {
		t.Run(cs.name, func(t *testing.T) {
			heapCountStop.Store(false)
			c := newCluster(t, 3)
			waitMainView(t, c, 3)
			spec := heapCountSpec(wire.AppID(60+i), 2, cs.protocol, cs.store)
			if err := c.Submit(spec); err != nil {
				t.Fatal(err)
			}

			// stored is the newest checkpoint every rank can restart from.
			stored := func() uint64 {
				if cs.protocol.Coordinated() {
					line, err := c.AnyDaemon().CommittedLine(spec.ID)
					if err != nil {
						return 0
					}
					return min(line[0], line[1])
				}
				mem, err := c.MemStore(1)
				if err != nil {
					t.Fatal(err)
				}
				newest := ^uint64(0)
				for r := wire.Rank(0); r < 2; r++ {
					ns, _ := mem.List(spec.ID, r)
					if len(ns) == 0 {
						return 0
					}
					newest = min(newest, ns[len(ns)-1])
				}
				return newest
			}
			deadline := time.Now().Add(60 * time.Second)
			for stored() < epochs {
				if time.Now().After(deadline) {
					t.Fatalf("only %d epochs stored", stored())
				}
				time.Sleep(2 * time.Millisecond)
			}
			if cs.store == ckpt.StoreDisk {
				first := map[int32]uint64{}
				recs := epochRecords(t, c, spec.ID)
				for i := range recs {
					r := &recs[i]
					if n, ok := first[r.Rank]; !ok || attr(t, r, "index") < n {
						first[r.Rank] = attr(t, r, "index")
					}
				}
				for i := range recs {
					r := &recs[i]
					if idx := attr(t, r, "index"); idx != first[r.Rank] && attr(t, r, "stored") >= attr(t, r, "raw") {
						t.Errorf("rank %d, epoch %d: a %d-byte record of a %d-byte image",
							r.Rank, idx, attr(t, r, "stored"), attr(t, r, "raw"))
					}
				}
				if len(recs) < 2*epochs {
					t.Errorf("%d ckpt/epoch records for %d stored epochs of 2 ranks", len(recs), epochs)
				}
			}
			killAndFinish(t, c, spec.ID)
		})
	}
}
