package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"starfish/internal/core"
	"starfish/internal/evstore"
)

// Recovery phases, in order. Each is the time from the previous milestone to
// its own; together they tile the operation, Crash() return to the last
// rank's first post-restore step.
var recoveryPhases = []string{
	"gossip.first_suspect_ms_p50",  // first gossip suspicion of the victim
	"gossip.detect_ms_p50",         // first confirm-dead of the victim
	"gcs.view_install_ms_p50",      // first view without the victim
	"daemon.restart_decide_ms_p50", // restarting record: line chosen, command sequenced
	"daemon.relaunch_ms_p50",       // every hosting daemon reports running
	"proc.restore_ms_p50",          // last rank's restore record: fetch, decode, rejoin
	"proc.first_step_ms_p50",       // last rank's first step completes
}

// episode is one kill-and-recover job.
type episode struct {
	ok        bool
	recoverMs float64 // the operation
	makespanS float64 // submit to Done
	phases    []float64
	falseSusp int
	bootMs    float64
	firstStep float64 // submit to rank 0's first step, ms
	dropped   float64
	stepUs    float64 // median rank-0 step, microseconds
	outside   float64 // share of the makespan rank 0 spent outside Step
}

// runKill is one repetition of kill_recover: warm-up episodes, then measured
// episodes until the window has passed. The window alone sets the length at
// full size; the smoke test's tiny window leans on the sz.krEpisodes floor.
func runKill(cfg *config, traced bool) *repResult {
	res := newRepResult()
	res.samples["host.calib_ms"] = []float64{hostCalib()}
	tr := newTracer(traced)
	sz := cfg.sz
	rng := rand.New(rand.NewSource(cfg.seed))
	repStart := now()
	var open int64
	var before counters
	var makespans, stepUs, outside []float64
	phases := make([][]float64, len(recoveryPhases))
	for ep := 0; ; ep++ {
		if ep == sz.krWarm {
			runtime.GC()
			before = processCounters()
			open = now()
			res.setupS = float64(open-repStart) / 1e9
		}
		measured := ep >= sz.krWarm
		if measured && ep-sz.krWarm >= sz.krEpisodes && now()-open >= cfg.window.Nanoseconds() {
			break
		}
		e := runEpisode(cfg, res, tr, rng, ep)
		if !measured {
			continue
		}
		res.samples["cluster.boot_ms_p50"] = append(res.samples["cluster.boot_ms_p50"], e.bootMs)
		res.layers["evstore.dropped"] += e.dropped
		if !e.ok {
			continue // failOp already counted it
		}
		res.attempted++
		res.ops = append(res.ops, e.recoverMs)
		makespans = append(makespans, e.makespanS)
		stepUs, outside = append(stepUs, e.stepUs), append(outside, e.outside)
		for i, p := range e.phases {
			phases[i] = append(phases[i], p)
		}
		res.layers["gossip.false_suspects"] += float64(e.falseSusp)
		res.samples["daemon.submit_to_first_step_ms_p50"] =
			append(res.samples["daemon.submit_to_first_step_ms_p50"], e.firstStep)
	}
	if m := median(makespans); m > 0 {
		res.stepsPerS = float64(sz.krRounds) / m
	}
	counterLayers(res.layers, before, processCounters(), len(makespans)*int(sz.krRounds), 0)
	res.layers["proc.step_us_p50"] = median(stepUs)
	res.layers["proc.runtime_frac"] = median(outside)
	for i, name := range recoveryPhases {
		res.layers[name] = median(phases[i])
	}
	res.spans = tr.snapshot()
	return res
}

// runEpisode boots a fresh 4-node cluster, runs the ring job, crashes the
// seeded victim once the seeded number of recovery lines has committed, and
// runs the job to Done. Every episode gets a fresh cluster rather than an
// AddNode after the kill: a restart placed on a node that joined after
// SUBMIT hangs in "restarting" (README, known findings).
func runEpisode(cfg *config, res *repResult, tr *tracer, rng *rand.Rand, ep int) episode {
	sz := cfg.sz
	var e episode
	lines := uint64(2 + rng.Intn(3)) // 2..4 committed lines before the kill
	pick := rng.Intn(2)              // which of the two ranks other than 0 loses its node
	jobSeed := rng.Int63()

	cl, err := bootCluster(cfg, 4, nil)
	if err != nil {
		res.failOp(cfg, "episode %d: boot: %v", ep, err)
		return e
	}
	defer cl.env.Shutdown()
	e.bootMs = cl.bootMs
	fail := func(format string, a ...any) episode {
		res.failOp(cfg, "episode %d: %s: %s", ep, fmt.Sprintf(format, a...), cl.describe())
		e.dropped = cl.droppedEvents()
		return e
	}

	const ranks = 3
	h, tok := newHook(ranks, tr, 64)
	defer hooks.Delete(tok)
	submitted := now()
	if err := cl.env.Submit(core.Job{
		ID: jobID, Name: ringStateName, Ranks: ranks,
		Args:     withToken(tok, ringStateArgs(sz.krRounds, jobSeed, sz.krBallast)),
		Protocol: core.StopAndSync, Encoder: core.Portable, Store: core.StoreMemory,
		CheckpointEverySteps: sz.krEvery,
	}); err != nil {
		return fail("submit: %v", err)
	}
	if !waitFor(epochDeadline, func() bool {
		line, err := cl.env.CommittedLine(jobID)
		return (err == nil && line[0] >= lines) || cl.terminal()
	}) || cl.terminal() {
		return fail("line %d never committed", lines)
	}
	st, _ := cl.env.Status(jobID)
	victim := st.Placement[core.Rank(1+pick)]
	if victim == st.Placement[0] || victim == cl.env.Nodes()[0] {
		return fail("victim %d hosts rank 0 or coordinates the group", victim)
	}

	killing := now()
	if err := cl.env.Crash(victim); err != nil {
		return fail("crash node %d: %v", victim, err)
	}
	killed := now()
	var recovered int64
	if !waitFor(recoverDeadline, func() bool {
		t, ok := h.recovered()
		recovered = t
		return ok || cl.terminal()
	}) || recovered == 0 {
		return fail("ranks did not step again within %v of the kill", recoverDeadline)
	}
	end, err := cl.env.Wait(jobID, jobDeadline)
	finished := now()
	if err != nil || end.Status != core.StatusDone || end.Gen < 2 {
		return fail("job did not end Done in a later generation (%v)", err)
	}

	e.ok = true
	e.recoverMs = msOf(recovered - killed)
	e.makespanS = float64(finished-submitted) / 1e9
	e.dropped = cl.droppedEvents()
	h.mu.Lock()
	if len(h.stepStart) > 0 {
		e.firstStep = msOf(h.stepStart[0] - submitted)
	}
	var stepNs []float64
	for i := range h.stepStart {
		stepNs = append(stepNs, float64(h.stepEnd[i]-h.stepStart[i]))
	}
	h.mu.Unlock()
	e.stepUs = median(stepNs) / 1e3
	e.outside = 1 - sum(stepNs)/float64(finished-submitted)
	e.phases, e.falseSusp = recoveryWaterfall(cl, tr, ep, victim, killing, killed, recovered)
	return e
}

// recoveryWaterfall reads the recovery's milestones out of the surviving
// nodes' event stores and returns the time between consecutive ones, in
// milliseconds, plus the number of gossip suspicions of nodes that were
// alive. A milestone that (by clock or by record order) precedes its
// predecessor is clamped to it, so the phases always sum to the operation.
func recoveryWaterfall(cl *cluster, tr *tracer, ep int, victim core.NodeID, killing, killed, recovered int64) ([]float64, int) {
	target := fmt.Sprintf("target=%d", victim)
	first := func(recs []evstore.Record) int64 {
		var t int64
		for i := range recs {
			if ts := recs[i].WriteTS; ts >= killing && (t == 0 || ts < t) {
				t = ts
			}
		}
		return t
	}
	last := func(recs []evstore.Record) int64 {
		var t int64
		for i := range recs {
			if ts := recs[i].WriteTS; ts >= killing {
				t = max(t, ts)
			}
		}
		return t
	}
	var views []evstore.Record
	for _, v := range cl.events("component=gcs kind=view-change") {
		members, _ := v.Get("members")
		if !slices.Contains(strings.Split(members, ","), fmt.Sprint(victim)) {
			views = append(views, v)
		}
	}
	app := fmt.Sprintf("app=%d", jobID)
	marks := []int64{
		first(cl.events("component=gossip kind=suspect " + target)),
		first(cl.events("component=gossip kind=confirm-dead " + target)),
		first(views),
		first(cl.events("component=daemon kind=restarting " + app)),
		last(cl.events("component=daemon kind=running " + app)),
		last(cl.events("component=proc kind=restore " + app)),
		recovered,
	}
	phases := make([]float64, len(marks))
	id := reqRecovery | uint64(ep)
	root := tr.add(id, -1, "recovery", killed, recovered)
	prev := killed
	for i, m := range marks {
		m = min(max(m, prev), recovered)
		phases[i] = msOf(m - prev)
		tr.add(id, root, strings.TrimSuffix(recoveryPhases[i], "_ms_p50"), prev, m)
		prev = m
	}

	falseSusp := 0
	for _, s := range cl.events("component=gossip kind=suspect") {
		if t, _ := s.Get("target"); t != fmt.Sprint(victim) || s.WriteTS < killing {
			falseSusp++
		}
	}
	return phases, falseSusp
}
