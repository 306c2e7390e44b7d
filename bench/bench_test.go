package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"starfish/internal/proc"
	"starfish/internal/svm"
)

// smokeSizes is every workload at about a fiftieth of its benchmark size.
// The allreduce vector stays at 64 KiB: from there up Allreduce returns the
// pooled buffer the app hands back, which the pool's guard mode (on in test
// binaries) insists on.
var smokeSizes = sizes{
	arElems: 8 << 10, arWarm: 50,
	jacN: 256, jacEvery: 200, jacWarm: 1000,
	vmHeapWords: 32 << 10, vmInner: 60, vmEvery: 100, vmWarm: 200,
	krRounds: 3000, krBallast: 64 << 10, krEvery: 300, krWarm: 1, krEpisodes: 2,
}

func smokeConfig(t *testing.T, trace bool) *config {
	return &config{
		seed: 7, reps: 1, window: 250 * time.Millisecond, trace: trace,
		tmpRoot: t.TempDir(), outDir: t.TempDir(), sz: smokeSizes, logf: t.Logf,
	}
}

// TestSmoke runs every workload small, untraced and traced, and checks that
// each run reports every metric it must, by name and with its unit, that the
// outcome survives its JSON form, and that the trace's spans nest.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		wd := &workloads[i]
		t.Run(wd.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := smokeConfig(t, trace)
				out := runWorkload(cfg, wd)
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, out.Correct, out.Attempted, out.Failed)
				}
				want := e2eMetrics
				if trace {
					want = layerMetrics
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				var back outcome
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatalf("outcome does not parse: %v\n%s", err, b)
				}
				if len(back.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, want %d", trace, len(back.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := back.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("trace=%v: metric %s: reported=%v unit=%q, want unit %q", trace, m.name, ok, v.Unit, m.unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0) {
						t.Errorf("trace=%v: metric %s = %v", trace, m.name, v.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkFileMatchesHarness: BENCHMARK.json names the workloads and
// metrics the harness emits, with the same units, and nothing else.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bf struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []named, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d, the harness emits %d", what, len(file), len(code))
			return
		}
		for i, m := range code {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %v, the harness %v", what, i, file[i], m)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
	var wls []metricDef
	for _, wd := range workloads {
		wls = append(wls, metricDef{name: wd.name})
	}
	same("workloads", bf.Workloads, wls)
}

// TestSpansNest checks the trace structure on the two request kinds built
// from several layers: a child lies within its parent and shares its id.
func TestSpansNest(t *testing.T) {
	for _, rep := range []*repResult{
		runSteady(smokeConfig(t, true), jacobiSpec(smokeSizes), true),
		runKill(smokeConfig(t, true), true),
	} {
		if rep.failed != 0 || len(rep.spans) == 0 {
			t.Fatalf("failed=%d spans=%d", rep.failed, len(rep.spans))
		}
		children := map[string]int{}
		for i, s := range rep.spans {
			if s.End < s.Start {
				t.Errorf("span %d %s ends before it starts", i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if s.Parent >= len(rep.spans) {
				t.Fatalf("span %d %s: parent %d out of range", i, s.Name, s.Parent)
			}
			p := rep.spans[s.Parent]
			if p.ID != s.ID {
				t.Errorf("span %d %s: id %x, parent %s has %x", i, s.Name, s.ID, p.Name, p.ID)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			children[p.Name]++
		}
		if children["proc.epoch"] == 0 && children["recovery"] == 0 {
			t.Errorf("no epoch or recovery waterfall in the trace: %v", children)
		}
	}
}

// TestWrongResultIsCounted plants one wrong expected allreduce value and
// checks it is counted as a failed operation, not lost and not fatal.
func TestWrongResultIsCounted(t *testing.T) {
	rep := runSteady(smokeConfig(t, false), allreduceSpec(smokeSizes, 60), false)
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want the one planted mismatch", rep.failed)
	}
	if rep.attempted <= rep.failed || rep.stepsPerS <= 0 {
		t.Fatalf("the job should have carried on: attempted %d, %.1f steps/s", rep.attempted, rep.stepsPerS)
	}
}

// TestWrappersKeepOptionalInterfaces: a wrapper that embedded the proc.App
// interface instead of the concrete type would hide VMApp's DirtySpans from
// the runtime.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	_, tok := newHook(1, nil, 1)
	defer hooks.Delete(tok)
	p := vmHeapParams{heapWords: 1024, inner: 10, addr: 1, stride: 213}
	app, err := proc.NewApp(vmHeapName, withToken(tok, proc.EncodeVMApp(p.vmApp())))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := app.(interface{ DirtySpans() []svm.Span }); !ok {
		t.Fatalf("%T hides DirtySpans from the runtime", app)
	}
	if _, ok := app.(interface{ VM() *svm.VM }); !ok {
		t.Fatalf("%T hides VM", app)
	}
}

// TestHeapWriterStepIsOneIteration: the VM workload relies on a Step ending
// at the loop head with an empty stack, so images keep their layout.
func TestHeapWriterStepIsOneIteration(t *testing.T) {
	p := vmHeapParams{heapWords: 4096, inner: 25, addr: 5, stride: 211}
	prog, err := svm.Assemble(heapWriterSource)
	if err != nil {
		t.Fatal(err)
	}
	vm := svm.New(alpha64[0], prog, vmGlobals)
	copy(vm.Globals, p.vmAppGlobals())
	vm.Grow(p.heapWords)
	slice := heapWriterIteration(p.inner)
	for i := int64(1); i <= 20; i++ {
		if _, err := vm.RunSteps(slice); err != nil {
			t.Fatal(err)
		}
		if vm.PC != 0 || len(vm.Stack) != 0 || vm.Globals[gCount] != i {
			t.Fatalf("after step %d: pc=%d stack=%d count=%d", i, vm.PC, len(vm.Stack), vm.Globals[gCount])
		}
	}
	if got := heapWriterSteps(p.inner, 20) - 5; vm.Steps != got {
		t.Fatalf("20 iterations took %d instructions, heapWriterSteps says %d plus the exit", vm.Steps, got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 90); p != 5 {
		t.Fatalf("p90 = %v", p)
	}
}

// TestFoldRunsWithFailedRuns: the repeat report must record failed runs, not
// crash on them or compare sets of unequal size.
func TestFoldRunsWithFailedRuns(t *testing.T) {
	if row, complete := foldRuns(nil, 2, 5); complete != 0 || len(row.SetMedians) != 0 {
		t.Fatalf("no successful run: complete=%d medians=%v", complete, row.SetMedians)
	}
	row, complete := foldRuns([][]float64{{10, 10, 10}, {20, 20}}, 2, 3)
	if complete != 1 || row.RelDiff != 0 {
		t.Fatalf("one short set: complete=%d diff=%v, want 1 and no comparison", complete, row.RelDiff)
	}
	row, complete = foldRuns([][]float64{{10, 10, 10}, {11, 12, 11}}, 2, 3)
	if complete != 2 || math.Abs(row.RelDiff-0.1) > 1e-9 {
		t.Fatalf("two full sets: complete=%d diff=%v, want 2 and 0.1", complete, row.RelDiff)
	}
}

func TestWindowedRate(t *testing.T) {
	// 1201 end stamps 1 ms apart, but every tenth window's worth stalls.
	var ends []int64
	at := int64(0)
	for i := 0; i <= 1200; i++ {
		at += 1e6
		if i/100 == 3 {
			at += 4e6 // one slow window
		}
		ends = append(ends, at)
	}
	if r := windowedRate(ends, 50); math.Abs(r-1000) > 1 {
		t.Fatalf("rate = %v, want 1000 steps/s despite the slow window", r)
	}
}
