package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
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

// TestInPlaceEpochsRecover: a write-tracking VM job checkpoints deltas into
// replicated memory, building every image from the third on in place in its
// two alternating buffers. After enough epochs that the newest chain — full
// record and deltas — was written that way throughout, a node hosting a rank
// is killed, and the restarted job must end with every rank's counter,
// instruction count and heap exact. Once per protocol: stop-and-sync and
// independent capture on the rank's main loop, Chandy–Lamport on the MPI
// progress goroutine.
func TestInPlaceEpochsRecover(t *testing.T) {
	const fullEvery = 3
	for i, protocol := range []ckpt.Protocol{ckpt.StopAndSync, ckpt.ChandyLamport, ckpt.Independent} {
		t.Run(protocol.String(), func(t *testing.T) {
			heapCountStop.Store(false)
			c := newCluster(t, 3)
			waitMainView(t, c, 3)
			spec := proc.AppSpec{
				ID: wire.AppID(60 + i), Name: heapCountName, Ranks: 2,
				Args: proc.EncodeVMApp(&proc.VMApp{
					// A step is 500 iterations, one heap chunk.
					StepSlice: 500 * heapCountIter, Source: heapCount, NGlobals: 4,
					Globals: []int64{0, 1 << 30, 0, heapCountWords}, HeapWords: heapCountWords,
				}),
				Protocol: protocol, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
				Store: ckpt.StoreMemory, DeltaCkpt: true, FullEvery: fullEvery, CkptEverySteps: 20,
			}
			if err := c.Submit(spec); err != nil {
				t.Fatal(err)
			}

			// stored is the newest checkpoint every rank can restart from.
			stored := func() uint64 {
				if protocol.Coordinated() {
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
			for stored() < fullEvery+3 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d epochs stored", stored())
				}
				time.Sleep(2 * time.Millisecond)
			}

			info, ok := c.AnyDaemon().AppInfo(spec.ID)
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
			// The job ends only once it has restarted: a survivor that
			// finished first would leave nothing to restore.
			for deadline = time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				if info, ok := c.AnyDaemon().AppInfo(spec.ID); ok && info.Gen >= 2 && info.Status == daemon.StatusRunning {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the job never restarted")
				}
			}
			heapCountStop.Store(true)

			final, err := c.WaitApp(spec.ID, 120*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if final.Status != daemon.StatusDone {
				t.Fatalf("status = %v, failure = %q", final.Status, final.Failure)
			}
			if final.Gen < 2 {
				t.Errorf("gen = %d, want a restart", final.Gen)
			}
		})
	}
}
