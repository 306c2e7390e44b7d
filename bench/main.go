// Command bench is the repository's end-to-end benchmark: four whole-job
// workloads on in-process clusters, each reporting the same four end-to-end
// metrics, and — in a separate traced run — per-layer metrics that say where
// the time went. See README.md for the definitions.
//
// bench/run.sh builds it and runs it from the repository root:
//
//	bash bench/run.sh --workload jacobi_sync_disk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -repeat 2x5   # sets of runs of every workload, with spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// outDir is where traced runs and repeat runs leave their records, relative
// to the repository root the harness is run from.
const outDir = "bench/out"

type metricDef struct{ name, unit string }

// The end-to-end metrics, the same four on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
}

// The per-layer metrics. Every traced run reports all of them; one a
// workload does not exercise (or does not probe) reads 0 there.
var layerMetrics = []metricDef{
	// in situ, every workload
	{"proc.step_us_p50", "us"},
	{"proc.runtime_frac", "ratio"},
	{"cluster.boot_ms_p50", "ms"},
	{"daemon.submit_to_first_step_ms_p50", "ms"},
	{"go.alloc_mb_per_s", "MB/s"},
	{"go.gc_cycles_per_s", "1/s"},
	{"wire.msgs_per_step", "count"},
	{"wire.copy_bytes_per_step", "B"},
	{"wire.pool_miss_frac", "ratio"},
	{"evstore.dropped", "count"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_pct", "%"},
	// allreduce_1m
	{"mpi.allreduce_ms_p50", "ms"},
	{"mpi.coll_segs_per_op", "count"},
	{"mpi.allreduce_1m_bare_ms_p50", "ms"},
	{"vni.rt_64k_us_p50", "us"},
	// jacobi_sync_disk
	{"mpi.pingpong_8b_us_p50", "us"},
	{"ckpt.encode_portable_ms_p50", "ms"},
	{"ckpt.disk_put_ms_p50", "ms"},
	{"ckpt.disk_get_ms_p50", "ms"},
	{"gcs.cast_us_p50", "us"},
	// both checkpoint workloads: the whole epoch and its waterfall
	{"proc.epoch_ms_p50", "ms"},
	{"proc.epoch_snapshot_ms_p50", "ms"},
	{"proc.epoch_capture_ms_p50", "ms"},
	{"proc.epoch_commit_ms_p50", "ms"},
	// vmheap_delta_mem
	{"svm.encode_image_ms_p50", "ms"},
	{"svm.dirty_block_frac", "ratio"},
	{"rstore.bytes_replicated_per_epoch", "B"},
	{"rstore.push_fail_frac", "ratio"},
	{"svm.run_minstr_per_s", "M/s"},
	{"ckpt.delta_diff_ms_p50", "ms"},
	{"ckpt.hash_seal_ms_p50", "ms"},
	{"ckpt.pipeline_put_ms_p50", "ms"},
	{"ckpt.stored_over_raw", "ratio"},
	{"proc.ckpt_overhead_pct", "%"},
	// kill_recover: the recovery waterfall
	{"gossip.first_suspect_ms_p50", "ms"},
	{"gossip.detect_ms_p50", "ms"},
	{"gcs.view_install_ms_p50", "ms"},
	{"daemon.restart_decide_ms_p50", "ms"},
	{"daemon.relaunch_ms_p50", "ms"},
	{"proc.restore_ms_p50", "ms"},
	{"proc.first_step_ms_p50", "ms"},
	{"gossip.false_suspects", "count"},
	{"rstore.put_ms_p50", "ms"},
	{"rstore.get_local_us_p50", "us"},
	{"rstore.get_peer_ms_p50", "ms"},
}

// workloadDef is one of the four workloads.
type workloadDef struct {
	name string
	// tailPct is the percentile op_ms_tail reports. Where the operation is
	// a checkpoint epoch or a recovery it is the highest percentile with at
	// least ten samples beyond it at the run's sample count; where it is a
	// step (thousands of samples) it is p95, because on a shared host the
	// hypervisor's stolen timeslices land on a percent or two of the steps
	// and make p99 a measure of the neighbours. With pooledTail the samples of a run's repetitions are pooled first
	// (a repetition alone holds too few); otherwise the tail is the
	// median of the repetitions' percentiles, like every other metric.
	tailPct    float64
	pooledTail bool
	rep        func(cfg *config, traced bool) *repResult
	// probes fills in the workload's isolated per-layer probes; extra the
	// per-layer values that need more than the traced repetition.
	probes func(cfg *config, l map[string]float64)
	extra  func(cfg *config, l map[string]float64, untraced *repResult)
}

func probe(cfg *config, l map[string]float64, name string, p func(*config) (float64, error)) {
	v, err := p(cfg)
	if err != nil {
		cfg.logf("probe %s: %v", name, err)
		return
	}
	l[name] = v
}

var workloads = []workloadDef{
	{
		name: "allreduce_1m", tailPct: 95,
		rep: func(cfg *config, traced bool) *repResult {
			return runSteady(cfg, allreduceSpec(cfg.sz, -1), traced)
		},
		probes: func(cfg *config, l map[string]float64) {
			probe(cfg, l, "mpi.allreduce_1m_bare_ms_p50", probeBareAllreduce)
			probe(cfg, l, "vni.rt_64k_us_p50", probeVNIRoundTrip64K)
		},
	},
	{
		name: "jacobi_sync_disk", tailPct: 95,
		rep: func(cfg *config, traced bool) *repResult {
			return runSteady(cfg, jacobiSpec(cfg.sz), traced)
		},
		probes: func(cfg *config, l map[string]float64) {
			probe(cfg, l, "mpi.pingpong_8b_us_p50", probePingPong8)
			probe(cfg, l, "ckpt.encode_portable_ms_p50", probeEncodePortable)
			probe(cfg, l, "ckpt.disk_put_ms_p50", probeDiskPut)
			probe(cfg, l, "ckpt.disk_get_ms_p50", probeDiskGet)
			probe(cfg, l, "gcs.cast_us_p50", probeGCSCast)
		},
	},
	{
		name: "vmheap_delta_mem", tailPct: 90, pooledTail: true,
		rep: func(cfg *config, traced bool) *repResult {
			return runSteady(cfg, vmHeapSpec(cfg.sz, cfg.sz.vmEvery), traced)
		},
		probes: func(cfg *config, l map[string]float64) {
			probe(cfg, l, "svm.run_minstr_per_s", probeSVMRun)
			probe(cfg, l, "ckpt.delta_diff_ms_p50", probeDeltaDiff)
			probe(cfg, l, "ckpt.hash_seal_ms_p50", probeHashSeal)
			probe(cfg, l, "ckpt.pipeline_put_ms_p50", probePipelinePut)
		},
		extra: func(cfg *config, l map[string]float64, untraced *repResult) {
			l["svm.encode_image_ms_p50"] = l["proc.epoch_snapshot_ms_p50"]
			// The paper's §5 number: what checkpointing costs the job's
			// goodput, against the same job with checkpoints off.
			plain := runSteady(cfg, vmHeapSpec(cfg.sz, 0), false)
			if plain.failed == 0 && plain.stepsPerS > 0 {
				l["proc.ckpt_overhead_pct"] = 100 * (1 - untraced.stepsPerS/plain.stepsPerS)
			}
		},
	},
	{
		name: "kill_recover", tailPct: 75, pooledTail: true,
		rep: runKill,
		probes: func(cfg *config, l map[string]float64) {
			if err := rstoreProbe(cfg, l); err != nil {
				cfg.logf("probe rstore: %v", err)
			}
		},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is one run of one workload: what the last output line carries.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// guarded runs one repetition of a workload under the goroutine-leak guard.
func guarded(cfg *config, wd *workloadDef, rep int, traced bool) *repResult {
	c := *cfg
	c.seed = cfg.seed<<4 | int64(rep) // distinct, reproducible inputs per repetition
	check := guardLeaks()
	res := wd.rep(&c, traced)
	if leak := check(); leak != "" {
		res.failOp(cfg, "repetition %d leaked goroutines: %s", rep, leak)
	}
	cfg.logf("repetition %d: setup %.3f s, %.1f steps/s, %d ops (p50 %.3f ms), %d attempted, %d failed, host calib %.1f ms",
		rep, res.setupS, res.stepsPerS, len(res.ops), median(res.ops), res.attempted, res.failed,
		median(res.samples["host.calib_ms"]))
	return res
}

// runWorkload is one run: cfg.reps untraced repetitions for the end-to-end
// metrics, or — traced — one untraced and one traced repetition plus the
// workload's probes for the per-layer metrics.
func runWorkload(cfg *config, wd *workloadDef) outcome {
	out := outcome{Metrics: map[string]metricValue{}}
	count := func(rs ...*repResult) {
		for _, r := range rs {
			out.Attempted += r.attempted
			out.Failed += r.failed
		}
	}
	if !cfg.trace {
		var reps []*repResult
		for i := 0; i < cfg.reps; i++ {
			reps = append(reps, guarded(cfg, wd, i, false))
		}
		count(reps...)
		for name, v := range endToEnd(wd, reps) {
			out.Metrics[name] = v
		}
	} else {
		untraced := guarded(cfg, wd, 0, false)
		traced := guarded(cfg, wd, 1, true)
		count(untraced, traced)
		l := traced.layers
		for name, vs := range traced.samples {
			l[name] = median(append(vs, untraced.samples[name]...))
		}
		if untraced.stepsPerS > 0 {
			l["trace.overhead_pct"] = 100 * (1 - traced.stepsPerS/untraced.stepsPerS)
		}
		wd.probes(cfg, l)
		if wd.extra != nil {
			wd.extra(cfg, l, untraced)
		}
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metricValue{l[m.name], m.unit}
		}
		tf := &traceFile{Workload: wd.name, Seed: cfg.seed, Layers: l, Spans: traced.spans}
		if err := writeTrace(cfg.outDir, tf); err != nil {
			cfg.logf("writing trace: %v", err)
		}
	}
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1
	}
	out.Correct = out.Failed == 0
	return out
}

// endToEnd folds the repetitions of a run into the four end-to-end metrics:
// each is the median of the repetitions' values. A repetition the host
// disturbed moves the median only if most of the run was disturbed with it,
// and — unlike the best repetition — the median still moves when a change
// makes some repetitions slow and not others.
func endToEnd(wd *workloadDef, reps []*repResult) map[string]metricValue {
	var setup, rate, p50, tail, pooled []float64
	for _, r := range reps {
		if r.stepsPerS <= 0 || len(r.ops) == 0 {
			continue // a repetition that failed before it measured anything
		}
		setup = append(setup, r.setupS)
		rate = append(rate, r.stepsPerS)
		p50 = append(p50, median(r.ops))
		tail = append(tail, percentile(r.ops, wd.tailPct))
		pooled = append(pooled, r.ops...)
	}
	t := median(tail)
	if wd.pooledTail {
		t = percentile(pooled, wd.tailPct)
	}
	return map[string]metricValue{
		"setup_s":     {median(setup), "s"},
		"steps_per_s": {median(rate), "1/s"},
		"op_ms_p50":   {median(p50), "ms"},
		"op_ms_tail":  {t, "ms"},
	}
}

func printOutcome(name string, out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d\n", name, out.Attempted, out.Failed)
	for _, n := range names {
		fmt.Printf("  %-40s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run, split over its repetitions")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	repeat := flag.String("repeat", "", "SETSxRUNS: run sets of runs of every workload and compare their medians")
	flag.Parse()

	// The measured host has two cores; never spread wider than four, so
	// numbers from bigger hosts stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

	if *repeat != "" {
		return repeatSets(*repeat, *workload, *seed, *seconds, logf)
	}

	tmp, err := os.MkdirTemp("", "starfish-bench-*")
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	cfg := &config{
		seed: *seed, reps: 5, trace: *trace != 0,
		tmpRoot: tmp, outDir: outDir, sz: fullSizes, logf: logf,
	}
	cfg.window = time.Duration(*seconds / float64(cfg.reps) * float64(time.Second))

	run := workloads
	if *workload != "" {
		wd := findWorkload(*workload)
		if wd == nil {
			logf("bench: unknown workload %q", *workload)
			return 2
		}
		run = []workloadDef{*wd}
	}
	all := outcome{Correct: true, Metrics: map[string]metricValue{}}
	for i := range run {
		out := runWorkload(cfg, &run[i])
		printOutcome(run[i].name, out)
		if len(run) == 1 {
			all = out
			break
		}
		all.Correct = all.Correct && out.Correct
		all.Attempted += out.Attempted
		all.Failed += out.Failed
		for n, v := range out.Metrics {
			all.Metrics[run[i].name+"/"+n] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
