package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"starfish/internal/core"
	"starfish/internal/evstore"
	"starfish/internal/leakcheck"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// Deadlines of the harness's own waits. Every wait has one; an operation
// that misses its deadline is counted as failed and the cluster is still
// shut down.
const (
	bootDeadline    = 15 * time.Second
	warmDeadline    = 60 * time.Second
	epochDeadline   = 10 * time.Second // a checkpoint epoch must commit within this
	recoverDeadline = 10 * time.Second // every rank must step again within this
	jobDeadline     = 120 * time.Second
)

const jobID core.AppID = 1

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	window  time.Duration // measured time per repetition
	reps    int
	trace   bool
	tmpRoot string // every checkpoint StoreDir lives under it
	outDir  string // where a traced run leaves its spans
	sz      sizes
	logf    func(string, ...any)
}

// repResult is what one repetition of a workload measured.
type repResult struct {
	setupS    float64
	stepsPerS float64
	ops       []float64 // latencies of the workload's operation, ms
	attempted int
	failed    int
	// layers holds the in-situ per-layer values of this repetition;
	// samples the per-layer observations that are pooled over the
	// repetitions of a run before their median is taken.
	layers  map[string]float64
	samples map[string][]float64
	spans   []span
}

func newRepResult() *repResult {
	return &repResult{layers: map[string]float64{}, samples: map[string][]float64{}}
}

// failOp counts one failed operation and logs why.
func (r *repResult) failOp(cfg *config, format string, a ...any) {
	r.attempted++
	r.failed++
	cfg.logf("FAILED: "+format, a...)
}

// hostCalib times a fixed sha256 spin. It does the same work before every
// repetition, so a value far from its neighbours flags a noisy host.
func hostCalib() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	var acc [32]byte
	for i := 0; i < 16; i++ {
		buf[0] = acc[0]
		acc = sha256.Sum256(buf)
	}
	return msOf(time.Since(start).Nanoseconds())
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
	return true
}

// leakTB lets the harness reuse internal/leakcheck, which is written
// against testing.TB, outside a test: it embeds a nil TB for the interface's
// unexported method and implements the three methods Check calls.
type leakTB struct {
	testing.TB
	cleanup func()
	leak    string
}

func (l *leakTB) Helper()          {}
func (l *leakTB) Cleanup(f func()) { l.cleanup = f }
func (l *leakTB) Errorf(format string, a ...any) {
	l.leak = fmt.Sprintf(format, a...)
}

// guardLeaks snapshots the goroutine count and returns a check to run once
// the repetition has shut its clusters down; the check reports a leak.
func guardLeaks() func() string {
	tb := &leakTB{}
	// The runtime's own helpers (GC workers, timers) come and go.
	leakcheck.Check(tb, 8)
	return func() string {
		tb.cleanup()
		return tb.leak
	}
}

// cluster is one booted environment plus how long booting took.
type cluster struct {
	env    *core.Starfish
	bootMs float64
}

func bootCluster(cfg *config, nodes int, archs []svm.Arch) (*cluster, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "store-*")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env, err := core.New(core.Options{Nodes: nodes, StoreDir: dir, Archs: archs})
	if err != nil {
		return nil, err
	}
	if err := env.WaitView(nodes, bootDeadline); err != nil {
		env.Shutdown()
		return nil, err
	}
	return &cluster{env: env, bootMs: msOf(time.Since(start).Nanoseconds())}, nil
}

// describe renders the last known state of the job, for failure logs.
func (c *cluster) describe() string {
	st, ok := c.env.Status(jobID)
	if !ok {
		return "app unknown to the contact daemon"
	}
	return fmt.Sprintf("status=%v gen=%d placement=%v done=%d failure=%q",
		st.Status, st.Gen, st.Placement, st.DoneRanks, st.Failure)
}

// terminal reports whether the job has ended, one way or the other.
func (c *cluster) terminal() bool {
	st, ok := c.env.Status(jobID)
	return ok && (st.Status == core.StatusDone || st.Status == core.StatusFailed)
}

// events returns every node's records matching the query, oldest first per
// node. Stores are per node; a record lives where it was emitted.
func (c *cluster) events(query string) []evstore.Record {
	q, err := evstore.ParseQuery(query)
	if err != nil {
		panic("bench: bad event query " + query + ": " + err.Error())
	}
	var out []evstore.Record
	for _, id := range c.env.Nodes() {
		if st, err := c.env.Cluster().Events(id); err == nil {
			out = append(out, st.Query(q)...)
		}
	}
	return out
}

// droppedEvents sums the records the nodes' event stores lost to overflow.
func (c *cluster) droppedEvents() float64 {
	var n uint64
	for _, id := range c.env.Nodes() {
		if st, err := c.env.Cluster().Events(id); err == nil {
			n += st.Stats().Dropped
		}
	}
	return float64(n)
}

func attrInt(r *evstore.Record, key string) int64 {
	v, _ := r.Get(key)
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

// counters is a snapshot of the process-global and per-node counter surfaces
// the layers already expose.
type counters struct {
	at         int64
	msgs       [8]uint64
	copied     uint64
	poolGets   uint64
	poolMisses uint64
	collSegs   uint64
	allocBytes uint64
	gcCycles   uint64
	replicated uint64
	pushes     uint64
	pushFails  uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCounters reads the process-global counters: the wire layer's and
// the Go runtime's.
func processCounters() counters {
	k := counters{at: now(), msgs: wire.MsgCounts(), copied: wire.CopiedBytes()}
	k.poolGets, _, k.poolMisses = wire.Pool.Stats()
	k.collSegs, _ = wire.CollSegStats()
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	k.allocBytes, k.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64()
	return k
}

// counters adds the cluster's replicated-store counters to the global ones.
func (c *cluster) counters() counters {
	k := processCounters()
	for _, id := range c.env.Nodes() {
		if m, err := c.env.Cluster().MemStore(id); err == nil {
			st := m.Stats()
			k.replicated += st.BytesReplicated
			k.pushes += st.Pushes
			k.pushFails += st.PushFailures
		}
	}
	return k
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers turns two counter snapshots around a window into per-layer
// rates; steps and epochs are the rank-0 steps and checkpoint epochs the
// window held.
func counterLayers(l map[string]float64, a, b counters, steps, epochs int) {
	secs := float64(b.at-a.at) / 1e9
	l["wire.msgs_per_step"] = ratio(float64(b.msgs[wire.TData]-a.msgs[wire.TData]), float64(steps))
	l["wire.copy_bytes_per_step"] = ratio(float64(b.copied-a.copied), float64(steps))
	l["wire.pool_miss_frac"] = ratio(float64(b.poolMisses-a.poolMisses), float64(b.poolGets-a.poolGets))
	l["mpi.coll_segs_per_op"] = ratio(float64(b.collSegs-a.collSegs), float64(steps))
	l["go.alloc_mb_per_s"] = ratio(float64(b.allocBytes-a.allocBytes)/(1<<20), secs)
	l["go.gc_cycles_per_s"] = ratio(float64(b.gcCycles-a.gcCycles), secs)
	l["rstore.bytes_replicated_per_epoch"] = ratio(float64(b.replicated-a.replicated), float64(epochs))
	l["rstore.push_fail_frac"] = ratio(float64(b.pushFails-a.pushFails), float64(b.pushes-a.pushes))
}

// sleepUnless sleeps for d, returning early (false) when stop reports true;
// it polls coarsely so the harness stays off the workload's cores.
func sleepUnless(d time.Duration, stop func() bool) bool {
	end := time.Now().Add(d)
	for {
		left := time.Until(end)
		if left <= 0 {
			return true
		}
		time.Sleep(min(left, 100*time.Millisecond))
		if stop() {
			return false
		}
	}
}
