package apps

import (
	"math"
	"sync"
	"testing"

	"starfish/internal/proc"
)

// stepJacobi runs n steps of every rank's instance, one goroutine a rank.
func stepJacobi(t testing.TB, ctxs []*proc.Ctx, ranks []*Jacobi, n int) {
	t.Helper()
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 0; s < n && errs[i] == nil; s++ {
				_, errs[i] = ranks[i].Step(ctxs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func newJacobiWorld(t testing.TB, size, n int, iters int64) ([]*proc.Ctx, []*Jacobi) {
	t.Helper()
	ctxs := worldCtxs(t, size)
	ranks := make([]*Jacobi, size)
	for i := range ranks {
		ranks[i] = &Jacobi{N: n, Iters: iters, Left: 2, Right: -1}
		if err := ranks[i].Init(ctxs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ctxs, ranks
}

// TestJacobiRestoreMidRun: a snapshot names the current grid whichever of the
// two alternating buffers holds it — after an odd and after an even number
// of steps — and a run restored from it ends bit for bit where the
// uninterrupted run does (rank 0's last Step also checks both against the
// sequential reference).
func TestJacobiRestoreMidRun(t *testing.T) {
	const size, n, iters = 3, 10, 40
	wctxs, whole := newJacobiWorld(t, size, n, iters)
	stepJacobi(t, wctxs, whole, iters+1) // the last one gathers and verifies

	for _, cut := range []int{7, 8} {
		ctxs, ranks := newJacobiWorld(t, size, n, iters)
		stepJacobi(t, ctxs, ranks, cut)
		restored := make([]*Jacobi, size)
		for i, a := range ranks {
			state, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored[i] = &Jacobi{}
			if err := restored[i].Restore(ctxs[i], state); err != nil {
				t.Fatal(err)
			}
		}
		stepJacobi(t, ctxs, restored, iters-cut+1)
		for i := range restored {
			for j, v := range restored[i].u {
				if math.Float64bits(v) != math.Float64bits(whole[i].u[j]) {
					t.Errorf("cut at %d: rank %d cell %d = %v, uninterrupted %v", cut, i, j, v, whole[i].u[j])
				}
			}
		}
	}
}

// TestJacobiStepAllocatesNothing: in steady state a step of a 4-rank run
// makes no heap allocation at any rank — AllocsPerRun counts the whole
// process, so the three ranks stepping alongside are in the figure.
func TestJacobiStepAllocatesNothing(t *testing.T) {
	const size, steps = 4, 2000
	ctxs, ranks := newJacobiWorld(t, size, 4096, 1<<40)
	stepJacobi(t, ctxs, ranks, 200) // pools, queues and connections warm

	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 0; s < steps+1; s++ { // AllocsPerRun's warm-up call is the +1
				if _, err := ranks[i].Step(ctxs[i]); err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	perStep := testing.AllocsPerRun(steps, func() {
		if _, err := ranks[0].Step(ctxs[0]); err != nil {
			t.Errorf("rank 0: %v", err)
		}
	})
	wg.Wait()
	if perStep != 0 && !raceEnabled {
		t.Errorf("%v allocations per step across %d ranks, want 0", perStep, size)
	}
}
