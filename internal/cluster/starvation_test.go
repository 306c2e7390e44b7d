package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/proc"
	"starfish/internal/svm"
)

// heapSweep counts global 0 down to zero, storing into one heap word per
// iteration at an address that sweeps the heap: compute-bound, no MPI
// traffic, nothing in it ever blocks.
const heapSweep = `
loop:   loadg 0
        jz done
        loadg 1
        loadg 0
        storem          ; mem[addr] = remaining
        loadg 1
        push 1
        add
        loadg 2
        mod
        storeg 1        ; addr = (addr + 1) mod heap
        loadg 0
        push 1
        sub
        storeg 0        ; remaining--
        jmp loop
done:   halt
`

// TestComputeBoundRanksDoNotStarveTheirDaemons: ranks are goroutines on their
// node's processors. Two compute-bound VM ranks on two processors, delta
// checkpoints of an 8 MiB heap to replicated memory every few dozen steps —
// every epoch must still commit and the job finish inside a loose budget, and
// since no node dies, no failure detector may suspect one: the daemons,
// group engines and gossip probes have to get the processor between steps.
func TestComputeBoundRanksDoNotStarveTheirDaemons(t *testing.T) {
	if raceEnabled {
		t.Skip("production failure-detector timing under the race detector's slowdown")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// The detector settings jobs run under outside the test suite (5 ms
	// probes, 150 ms budget), not the suite's generous ones: starvation is
	// exactly what they must not mistake for death.
	c, err := New(Options{Nodes: 3, StoreDir: t.TempDir(), Logf: t.Logf, Archs: []svm.Arch{svm.Machines[5]}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	waitMainView(t, c, 3)

	const (
		heapWords  = 1 << 20
		stepSlice  = 32000 // instructions per step: about a millisecond
		perIter    = 16    // instructions per loop iteration
		every      = 40    // steps per checkpoint epoch: 80k words, a tenth of the heap
		cadences   = 24    // a cadence that finds the previous round still running is skipped
		wantEpochs = 12
	)
	iterations := int64(cadences*every+every/2) * stepSlice / perIter
	spec := proc.AppSpec{
		ID: 70, Name: proc.VMAppName, Ranks: 2,
		Args: proc.EncodeVMApp(&proc.VMApp{
			StepSlice: stepSlice, Source: heapSweep, NGlobals: 3,
			Globals: []int64{iterations, 0, heapWords}, HeapWords: heapWords,
		}),
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
		Store: ckpt.StoreMemory, CkptEverySteps: every,
	}
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitApp(spec.ID, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != daemon.StatusDone || info.Gen != 1 {
		t.Fatalf("status = %v, gen = %d, failure = %q", info.Status, info.Gen, info.Failure)
	}

	count := func(query string) int {
		q, err := evstore.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, id := range c.Nodes() {
			st, err := c.Events(id)
			if err != nil {
				t.Fatal(err)
			}
			n += len(st.Query(q))
		}
		return n
	}
	started := count(fmt.Sprintf("component=proc kind=checkpoint app=%d rank=0", spec.ID))
	committed := len(evWait(t, c.ContactEvents(), fmt.Sprintf("component=proc kind=commit app=%d", spec.ID), started))
	if started < wantEpochs || committed != started {
		t.Errorf("%d epochs committed of %d started, want all of >= %d", committed, started, wantEpochs)
	}
	for _, component := range []string{"gossip", "gcs", "lwg"} {
		if n := count("component=" + component + " kind=suspect"); n != 0 {
			t.Errorf("%d %s suspect records although no node died", n, component)
		}
	}
}
