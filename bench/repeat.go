package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRow is one <workload>/<metric> of a repeat run, as recorded in
// bench/out/repeat.json.
type repeatRow struct {
	Metric     string      `json:"metric"`
	Unit       string      `json:"unit"`
	Bound      float64     `json:"bound"`
	SetMedians []float64   `json:"set_medians"`
	RelDiff    float64     `json:"rel_diff"`  // largest set-to-set median difference, as a share of the first
	Spread     float64     `json:"spread"`    // largest (Q3-Q1)/median within a set
	RunRange   float64     `json:"run_range"` // farthest single run from its set median, as a share of it
	Runs       [][]float64 `json:"runs"`
}

// repeatSets runs SETS sets of RUNS runs of every workload (or the one
// named), each run a fresh process with its own seed like the driver's, and
// prints for every end-to-end metric the set medians, how far they differ,
// and the spread and range of the runs. It exits non-zero when two set
// medians differ by more than the metric's BENCHMARK.json bound. This is how
// the bounds and the recorded spreads were produced.
func repeatSets(spec, only string, seed int64, seconds float64, logf func(string, ...any)) int {
	var sets, runs int
	if _, err := fmt.Sscanf(spec, "%dx%d", &sets, &runs); err != nil || sets < 1 || runs < 1 {
		logf("bench: -repeat wants SETSxRUNS, e.g. 2x5")
		return 2
	}
	var bf benchmarkFile
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		logf("bench: -repeat reads the bounds from BENCHMARK.json in the working directory: %v", err)
		return 2
	} else if err := json.Unmarshal(b, &bf); err != nil {
		logf("bench: BENCHMARK.json: %v", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	var rows []repeatRow
	exit := 0
	for _, wd := range workloads {
		if only != "" && wd.name != only {
			continue
		}
		values := map[string][][]float64{} // metric -> set -> runs
		for s := 0; s < sets; s++ {
			for r := 0; r < runs; r++ {
				runSeed := seed + int64(s*runs+r)
				out, err := runChild(wd.name, runSeed, seconds)
				if err != nil || !out.Correct {
					logf("bench: %s seed %d: failed (%v)", wd.name, runSeed, err)
					exit = 1
					continue
				}
				logf("%s set %d run %d seed %d done", wd.name, s+1, r+1, runSeed)
				for _, m := range e2eMetrics {
					if values[m.name] == nil {
						values[m.name] = make([][]float64, sets)
					}
					values[m.name][s] = append(values[m.name][s], out.Metrics[m.name].Value)
				}
			}
		}
		for _, m := range e2eMetrics {
			row, complete := foldRuns(values[m.name], sets, runs)
			row.Metric, row.Unit, row.Bound = wd.name+"/"+m.name, m.unit, bounds[m.name]
			rows = append(rows, row)
			if complete < sets {
				// Sets of unequal size are not comparable; the failed
				// runs were logged and already turned the exit code.
				fmt.Printf("%-34s FAILED RUNS: %d of %d sets complete\n", row.Metric, complete, sets)
				continue
			}
			verdict := "ok"
			if row.RelDiff > row.Bound {
				verdict = "OVER BOUND"
				exit = 1
			}
			fmt.Printf("%-34s medians %v %s  diff %.2f%%  spread %.2f%%  range %.2f%%  bound %.0f%%  %s\n",
				row.Metric, fmtFloats(row.SetMedians), row.Unit,
				100*row.RelDiff, 100*row.Spread, 100*row.RunRange, 100*row.Bound, verdict)
		}
	}
	record := map[string]any{
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		"sets": sets, "runs": runs, "seconds": seconds, "first_seed": seed, "rows": rows,
	}
	if b, err := json.MarshalIndent(record, "", " "); err == nil {
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "repeat.json"), b, 0o644)
		}
		if err != nil {
			logf("bench: recording the repeat run: %v", err)
		}
	}
	return exit
}

// foldRuns turns one metric's values (set -> runs; nil when no run of the
// workload succeeded) into the statistics of a repeat row, and counts the
// sets that hold a value from every one of their runs. The set medians are
// only compared when every set is complete.
func foldRuns(values [][]float64, sets, runs int) (row repeatRow, complete int) {
	row.Runs = values
	for _, set := range values {
		if len(set) == runs {
			complete++
		}
		med := median(set)
		row.SetMedians = append(row.SetMedians, med)
		q1, q3 := quartiles(set)
		row.Spread = math.Max(row.Spread, ratio(q3-q1, med))
		for _, v := range set {
			row.RunRange = math.Max(row.RunRange, ratio(math.Abs(v-med), med))
		}
	}
	if complete == sets {
		for _, med := range row.SetMedians[1:] {
			row.RelDiff = math.Max(row.RelDiff, ratio(math.Abs(med-row.SetMedians[0]), row.SetMedians[0]))
		}
	}
	return row, complete
}

func fmtFloats(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprintf("%.5g", v)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// runChild runs one untraced run of a workload in a fresh process and parses
// the outcome from the last line of its output.
func runChild(workload string, seed int64, seconds float64) (outcome, error) {
	var out outcome
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &out); err != nil {
		return out, fmt.Errorf("no outcome line (%v): %v", runErr, err)
	}
	return out, runErr
}
