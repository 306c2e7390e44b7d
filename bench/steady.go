package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"starfish/internal/apps"
	"starfish/internal/core"
	"starfish/internal/proc"
	"starfish/internal/svm"
)

// steadySpec describes a workload that runs one long job and measures a
// window of its steady state: allreduce_1m, jacobi_sync_disk and
// vmheap_delta_mem.
type steadySpec struct {
	nodes, ranks int
	archs        []svm.Arch // nil: the cluster's default heterogeneous mix
	// job builds the submission from the hook token and the run's seed.
	job func(tok uint64, seed int64) core.Job
	// warmSteps is the fixed amount of warm-up work: rank-0 steps that
	// complete before the measured window opens. It is part of setup_s.
	warmSteps int64
	// epochOp selects the workload's operation: a checkpoint epoch
	// (rank-0 Snapshot entry to the commit record of its index), or, when
	// false, one step at rank 0. Epochs are counted as attempted, and an
	// uncommitted one as failed, either way.
	epochOp bool
	// finish asks the running job to end; every rank then stops at an
	// agreed step, so the job still verifies its own result.
	finish func(h *hook)
	sample int64 // traced runs record every sample-th step
}

// window boundaries of one repetition.
type windowed struct {
	open, close int64
	before      counters
	after       counters
}

// windowCount is how many equal-step-count windows a repetition's measured
// interval is cut into; steps_per_s is the median of their rates.
const windowCount = 12

// runSteady is one repetition: boot a fresh cluster, submit the job, let the
// warm-up work pass, measure for cfg.window, finish and verify the job.
func runSteady(cfg *config, sp *steadySpec, traced bool) *repResult {
	res := newRepResult()
	res.samples["host.calib_ms"] = []float64{hostCalib()}
	tr := newTracer(traced)

	repStart := now()
	cl, err := bootCluster(cfg, sp.nodes, sp.archs)
	if err != nil {
		res.failOp(cfg, "boot: %v", err)
		return res
	}
	defer cl.env.Shutdown()
	res.samples["cluster.boot_ms_p50"] = []float64{cl.bootMs}

	h, tok := newHook(sp.ranks, tr, sp.sample)
	defer hooks.Delete(tok)
	job := sp.job(tok, cfg.seed)
	job.ID = jobID
	submitted := now()
	if err := cl.env.Submit(job); err != nil {
		res.failOp(cfg, "submit: %v", err)
		return res
	}
	if !waitFor(warmDeadline, func() bool { return h.steps0.Load() >= sp.warmSteps || cl.terminal() }) ||
		cl.terminal() {
		res.failOp(cfg, "job did not finish its warm-up steps: %s", cl.describe())
		return res
	}

	runtime.GC()
	var w windowed
	w.before = cl.counters()
	w.open = now()
	sleepUnless(cfg.window, cl.terminal)
	w.close = now()
	w.after = cl.counters()

	sp.finish(h)
	st, err := cl.env.Wait(jobID, jobDeadline)
	if err != nil || st.Status != core.StatusDone {
		res.failOp(cfg, "job did not end Done (%v): %s", err, cl.describe())
	} else {
		res.attempted++ // the job itself, self-verified at exit
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.fails {
		res.failOp(cfg, "%s", f)
	}
	if len(h.stepStart) > 0 {
		res.samples["daemon.submit_to_first_step_ms_p50"] = []float64{msOf(h.stepStart[0] - submitted)}
	}
	res.setupS = float64(w.open-repStart) / 1e9

	lo, hi := stepsWithin(h, w.open, w.close)
	steps := hi - lo
	if steps < windowCount {
		res.failOp(cfg, "only %d rank-0 steps in the measured window", steps)
		return res
	}
	res.stepsPerS = windowedRate(h.stepEnd[lo:hi], int(job.CheckpointEverySteps))

	epochs := epochWaterfall(cfg, cl, h, &w, res, tr)
	res.attempted += len(epochs)
	if sp.epochOp {
		for _, e := range epochs {
			res.ops = append(res.ops, e.total)
		}
	} else {
		for i := lo; i < hi; i++ {
			res.ops = append(res.ops, msOf(h.stepEnd[i]-h.stepStart[i]))
		}
		res.attempted += steps
	}

	// In-situ per-layer values of this repetition.
	l := res.layers
	var stepNs []float64
	busy := 0.0
	for i := lo; i < hi; i++ {
		d := float64(h.stepEnd[i] - h.stepStart[i])
		stepNs = append(stepNs, d)
		busy += d
	}
	l["proc.step_us_p50"] = median(stepNs) / 1e3
	l["proc.runtime_frac"] = 1 - busy/float64(h.stepEnd[hi-1]-h.stepStart[lo])
	counterLayers(l, w.before, w.after, steps, len(epochs))
	var comm []float64 // only the allreduce app reports its Comm calls
	for _, c := range h.comm {
		if c.start >= w.open && c.end <= w.close {
			comm = append(comm, msOf(c.end-c.start))
		}
	}
	l["mpi.allreduce_ms_p50"] = median(comm)
	l["evstore.dropped"] = cl.droppedEvents()
	l["svm.dirty_block_frac"] = median(h.dirty)
	res.spans = tr.snapshot()
	return res
}

// stepsWithin returns the half-open index range of rank-0 steps that lie
// wholly inside [open, close]. The caller holds h.mu.
func stepsWithin(h *hook, open, close int64) (lo, hi int) {
	lo = sort.Search(len(h.stepStart), func(i int) bool { return h.stepStart[i] >= open })
	hi = sort.Search(len(h.stepEnd), func(i int) bool { return h.stepEnd[i] > close })
	return lo, max(lo, hi)
}

// windowedRate cuts the steps whose end stamps it is given into windowCount
// windows of one step count — a whole number of checkpoint cadences when the
// interval allows, so every window holds the same number of epochs — and
// returns the median of their rates, in steps per second. Interference from
// the shared host lasts a window or two; the median is unmoved by it.
func windowedRate(ends []int64, cadence int) float64 {
	w := (len(ends) - 1) / windowCount
	if cadence > 0 && w >= cadence {
		w -= w % cadence
	}
	if w < 1 {
		return 0
	}
	var rates []float64
	for i := 0; i+w < len(ends); i += w {
		rates = append(rates, float64(w)/(float64(ends[i+w]-ends[i])/1e9))
	}
	return median(rates)
}

// ---- the three steady workloads ----

// sizes are the knobs the smoke test turns down; fullSizes is the benchmark.
type sizes struct {
	arElems int   // allreduce vector length, int64 elements
	arWarm  int64 // warm-up steps

	jacN     int
	jacEvery uint64 // checkpoint cadence, steps
	jacWarm  int64

	vmHeapWords int
	vmInner     int64 // LCG iterations per heap write, and so per step
	vmEvery     uint64
	vmWarm      int64

	krRounds   int64 // ring rounds per job
	krBallast  int   // bytes of state per rank
	krEvery    uint64
	krWarm     int // warm-up episodes per repetition
	krEpisodes int // least measured episodes per repetition, whatever the window
}

var fullSizes = sizes{
	arElems: 128 << 10, arWarm: 1000,
	jacN: 4096, jacEvery: 2000, jacWarm: 30000,
	vmHeapWords: 1 << 20, vmInner: 3332, vmEvery: 500, vmWarm: 4000,
	krRounds: 8000, krBallast: 4 << 20, krEvery: 800, krWarm: 2, krEpisodes: 1,
}

// alpha64 is the cluster's one 64-bit machine type: on it a VM word is 8
// bytes, so a 1 Mi-word heap is the 8 MiB image the workload is sized for.
var alpha64 = []svm.Arch{svm.Machines[5]}

func allreduceSpec(sz sizes, wrongAt int64) *steadySpec {
	return &steadySpec{
		nodes: 4, ranks: 4,
		job: func(tok uint64, seed int64) core.Job {
			return core.Job{
				Name: allreduceName, Ranks: 4,
				Args: withToken(tok, allreduceArgs(seed, sz.arElems, wrongAt)),
			}
		},
		warmSteps: sz.arWarm,
		finish:    func(h *hook) { h.stop.Store(true) },
		sample:    8,
	}
}

// jacobiSpec's operation is the step, not the checkpoint epoch: a 2.5 ms
// epoch made of four ranks draining to an agreed step spreads 10-20% from
// run to run at every percentile, so it is reported per layer
// (proc.epoch_ms_p50 and its phases) and shows end to end in steps_per_s.
func jacobiSpec(sz sizes) *steadySpec {
	return &steadySpec{
		nodes: 4, ranks: 4,
		job: func(tok uint64, seed int64) core.Job {
			rng := rand.New(rand.NewSource(seed))
			left, right := 50+50*rng.Float64(), -50*rng.Float64()
			return core.Job{
				Name: jacobiName, Ranks: 4,
				Args:     withToken(tok, apps.JacobiArgs(sz.jacN, 1<<40, left, right)),
				Protocol: core.StopAndSync, Encoder: core.Portable, Store: core.StoreDisk,
				CheckpointEverySteps: sz.jacEvery,
			}
		},
		warmSteps: sz.jacWarm,
		// Neighbouring ranks are one halo exchange apart, so an iteration
		// this far ahead of rank 0 is ahead of every rank.
		finish: func(h *hook) { h.stopAt.Store(h.steps0.Load() + 1000) },
		sample: 256,
	}
}

func vmHeapSpec(sz sizes, every uint64) *steadySpec {
	return &steadySpec{
		nodes: 3, ranks: 2, archs: alpha64,
		job: func(tok uint64, seed int64) core.Job {
			p := vmHeapParams{heapWords: sz.vmHeapWords, inner: sz.vmInner}
			p.addr, p.stride = vmHeapSeeded(seed, sz.vmHeapWords)
			return core.Job{
				Name: vmHeapName, Ranks: 2,
				Args:     withToken(tok, proc.EncodeVMApp(p.vmApp())),
				Protocol: core.StopAndSync, Encoder: core.Portable, Store: core.StoreMemory,
				Delta: true, CheckpointEverySteps: every,
			}
		},
		warmSteps: sz.vmWarm,
		epochOp:   every > 0,
		finish:    func(h *hook) { h.stop.Store(true) },
		sample:    32,
	}
}

// ---- checkpoint-epoch waterfall, from the wrappers and the event plane ----

// epoch is one committed checkpoint epoch, in milliseconds: rank 0's
// Snapshot call, then until the last rank's checkpoint record (drain,
// encode, store), then until the commit record (ack and commit casts).
type epoch struct {
	index                     int64
	snapshot, capture, commit float64
	total                     float64
}

// epochWaterfall matches rank 0's Snapshot calls inside the window with the
// proc/checkpoint and proc/commit records of their indices. An epoch whose
// commit record is missing counts as failed. The caller holds h.mu.
func epochWaterfall(cfg *config, cl *cluster, h *hook, w *windowed, res *repResult, tr *tracer) []epoch {
	ckpts := cl.events(fmt.Sprintf("component=proc kind=checkpoint app=%d", jobID))
	commits := cl.events(fmt.Sprintf("component=proc kind=commit app=%d", jobID))
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].WriteTS < ckpts[j].WriteTS })

	// The k-th Snapshot call of a rank belongs to the k-th checkpoint that
	// rank recorded; that record names the index.
	var rank0 []int64             // index of rank 0's k-th checkpoint
	lastCkpt := map[int64]int64{} // index -> time the last rank recorded it
	for i := range ckpts {
		idx := attrInt(&ckpts[i], "index")
		if ckpts[i].Rank == 0 {
			rank0 = append(rank0, idx)
		}
		lastCkpt[idx] = max(lastCkpt[idx], ckpts[i].WriteTS)
	}
	committed := map[int64]int64{}
	for i := range commits {
		committed[attrInt(&commits[i], "line")] = commits[i].WriteTS
	}

	var out []epoch
	var stored, raw float64
	for k, s := range h.snaps[0] {
		if s.start < w.open || s.start > w.close {
			continue
		}
		if k >= len(rank0) {
			res.failOp(cfg, "epoch %d: rank 0 never recorded its checkpoint", k+1)
			continue
		}
		idx := rank0[k]
		done, ok := committed[idx]
		if !ok || done-s.start > epochDeadline.Nanoseconds() {
			res.failOp(cfg, "epoch index %d not committed within %v", idx, epochDeadline)
			continue
		}
		captured := min(max(lastCkpt[idx], s.end), done)
		out = append(out, epoch{
			index:    idx,
			snapshot: msOf(s.end - s.start),
			capture:  msOf(captured - s.end),
			commit:   msOf(done - captured),
			total:    msOf(done - s.start),
		})
		id := reqEpoch | uint64(idx)
		root := tr.add(id, -1, "proc.epoch", s.start, done)
		tr.add(id, root, "proc.epoch_snapshot", s.start, s.end)
		tr.add(id, root, "proc.epoch_capture", s.end, captured)
		tr.add(id, root, "proc.epoch_commit", captured, done)
	}
	for _, e := range cl.events(fmt.Sprintf("component=ckpt kind=epoch app=%d", jobID)) {
		if e.WriteTS >= w.open && e.WriteTS <= w.close {
			stored += float64(attrInt(&e, "stored"))
			raw += float64(attrInt(&e, "raw"))
		}
	}

	var total, snap, capt, comm []float64
	for _, e := range out {
		total = append(total, e.total)
		snap, capt, comm = append(snap, e.snapshot), append(capt, e.capture), append(comm, e.commit)
	}
	l := res.layers
	l["proc.epoch_ms_p50"] = median(total)
	l["proc.epoch_snapshot_ms_p50"] = median(snap)
	l["proc.epoch_capture_ms_p50"] = median(capt)
	l["proc.epoch_commit_ms_p50"] = median(comm)
	l["ckpt.stored_over_raw"] = ratio(stored, raw)
	return out
}
