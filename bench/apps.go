package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"starfish/internal/apps"
	"starfish/internal/mpi"
	"starfish/internal/proc"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// The benchmark measures the runtime from outside: the applications it
// submits are bench-owned wrappers that time the proc.App calls the runtime
// makes (Step, Snapshot, Restore) and the Comm calls the app makes, and
// report them to the harness through a hook. Wrappers embed the concrete
// wrapped type, so optional interfaces of the wrapped app (VMApp.DirtySpans)
// stay visible to the runtime.

// Registered names of the bench-owned applications.
const (
	allreduceName = "bench-allreduce"
	jacobiName    = "bench-jacobi"
	vmHeapName    = "bench-vmheap"
	ringStateName = "bench-ringstate"
)

func init() {
	proc.Register(allreduceName, newAllreduceApp)
	proc.Register(jacobiName, newJacobiApp)
	proc.Register(vmHeapName, newVMHeapApp)
	proc.Register(ringStateName, newRingStateApp)
}

func now() int64 { return time.Now().UnixNano() }

// ival is a closed interval of unix nanoseconds.
type ival struct{ start, end int64 }

// hook is the channel between the harness and the app instances the runtime
// creates for one job. The runtime builds apps through the process-global
// proc registry from opaque argument bytes, so the harness registers a hook
// under a token and puts the token at the front of the arguments.
type hook struct {
	ranks  int
	tr     *tracer // nil in an untraced run
	sample int64   // a traced run records every sample-th step of each rank

	stop   atomic.Bool  // the harness asks the job to finish
	stopAt atomic.Int64 // jacobi: the iteration every rank finishes at
	steps0 atomic.Int64 // steps completed at rank 0

	mu        sync.Mutex
	stepStart []int64 // rank 0: every Step, unix ns
	stepEnd   []int64
	comm      []ival    // rank 0, traced: the Comm call of every step
	snaps     [][]ival  // per rank: every Snapshot call
	restores  [][]ival  // per rank: every Restore call
	firstStep []int64   // per rank: end of the first Step after the latest Restore
	dirty     []float64 // rank 0, traced: share of 4 KiB blocks changed between snapshots
	fails     []string  // step-result mismatches
}

var (
	hooks     sync.Map // uint64 -> *hook
	nextToken atomic.Uint64
)

// newHook registers a hook and returns it with its token; the caller
// deletes the token from hooks when the job is over.
func newHook(ranks int, tr *tracer, sample int64) (*hook, uint64) {
	h := &hook{
		ranks: ranks, tr: tr, sample: sample,
		stepStart: make([]int64, 0, 1<<18),
		stepEnd:   make([]int64, 0, 1<<18),
		snaps:     make([][]ival, ranks),
		restores:  make([][]ival, ranks),
		firstStep: make([]int64, ranks),
	}
	tok := nextToken.Add(1)
	hooks.Store(tok, h)
	return h, tok
}

// withToken prefixes app arguments with the hook token.
func withToken(tok uint64, args []byte) []byte {
	out := make([]byte, 8, 8+len(args))
	binary.BigEndian.PutUint64(out, tok)
	return append(out, args...)
}

// hookOf resolves the token at the front of args.
func hookOf(args []byte) (*hook, []byte, error) {
	if len(args) < 8 {
		return nil, nil, fmt.Errorf("bench: app arguments carry no hook token")
	}
	v, ok := hooks.Load(binary.BigEndian.Uint64(args))
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown hook token")
	}
	return v.(*hook), args[8:], nil
}

func (h *hook) fail(format string, a ...any) {
	h.mu.Lock()
	h.fails = append(h.fails, fmt.Sprintf(format, a...))
	h.mu.Unlock()
}

// stepDone records one finished Step. Rank 0's steps are the workload's
// step clock; in a traced run every sample-th step of every rank also
// becomes a span, whose index is returned for the step's children (-1 when
// the step is not sampled).
func (h *hook) stepDone(rank int, n int64, s ival) int {
	if rank == 0 {
		h.mu.Lock()
		h.stepStart = append(h.stepStart, s.start)
		h.stepEnd = append(h.stepEnd, s.end)
		h.mu.Unlock()
		h.steps0.Add(1)
	}
	if h.tr != nil && n%h.sample == 0 {
		return h.tr.add(stepReq(rank, n), -1, "proc.step", s.start, s.end)
	}
	return -1
}

// commDone records the Comm call a step made, as a child of its step span.
func (h *hook) commDone(rank int, n int64, parent int, name string, c ival) {
	if h.tr == nil {
		return
	}
	if rank == 0 {
		h.mu.Lock()
		h.comm = append(h.comm, c)
		h.mu.Unlock()
	}
	if parent >= 0 {
		h.tr.add(stepReq(rank, n), parent, name, c.start, c.end)
	}
}

func (h *hook) snapshot(rank int, f func() ([]byte, error)) ([]byte, error) {
	s := now()
	img, err := f()
	e := now()
	h.mu.Lock()
	h.snaps[rank] = append(h.snaps[rank], ival{s, e})
	h.mu.Unlock()
	return img, err
}

func (h *hook) restore(rank int, f func() error) error {
	s := now()
	err := f()
	e := now()
	h.mu.Lock()
	h.restores[rank] = append(h.restores[rank], ival{s, e})
	h.firstStep[rank] = 0
	h.mu.Unlock()
	return err
}

// firstStepDone records the end of a rank's first Step after a Restore.
func (h *hook) firstStepDone(rank int, end int64) {
	h.mu.Lock()
	h.firstStep[rank] = end
	h.mu.Unlock()
}

// recovered returns when the last rank finished its first post-restore
// Step, once every rank has.
func (h *hook) recovered() (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var last int64
	for r := 0; r < h.ranks; r++ {
		if len(h.restores[r]) == 0 || h.firstStep[r] == 0 {
			return 0, false
		}
		last = max(last, h.firstStep[r])
	}
	return last, true
}

// ---- allreduce_1m: one large Allreduce per step ----

// allreduceApp sums a seeded vector across the ranks once per step and
// checks the whole result every step. Two leading elements are dynamic:
// element 0 carries rank 0's vote to finish (so every rank stops at the same
// step), element 1 a per-step value that proves the ranks are in lockstep.
type allreduceApp struct {
	h     *hook
	rank  int
	seed  int64
	elems int
	// wrongAt, when >= 0, is a step whose expected value is deliberately
	// wrong: the harness's own check that a mismatch is counted.
	wrongAt int64

	step    int64
	contrib []byte // this rank's vector, little-endian int64s
	want    []byte // elementwise sum over all ranks
}

const allreduceDynamic = 16 // bytes of the two dynamic leading elements

func allreduceArgs(seed int64, elems int, wrongAt int64) []byte {
	w := wire.NewWriter(24)
	w.I64(seed).U32(uint32(elems)).I64(wrongAt)
	return w.Bytes()
}

func newAllreduceApp(args []byte) (proc.App, error) {
	h, rest, err := hookOf(args)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(rest)
	a := &allreduceApp{h: h, seed: r.I64(), elems: int(r.U32()), wrongAt: r.I64()}
	if r.Err() != nil || a.elems < 2 {
		return nil, fmt.Errorf("bench: bad allreduce arguments")
	}
	return a, nil
}

// allreduceVector is rank's seeded contribution; the dynamic elements are 0.
func allreduceVector(seed int64, rank, elems int) []int64 {
	rng := rand.New(rand.NewSource(seed*1009 + int64(rank)))
	v := make([]int64, elems)
	for i := 2; i < elems; i++ {
		v[i] = rng.Int63n(1 << 40)
	}
	return v
}

func (a *allreduceApp) Init(ctx *proc.Ctx) error {
	a.rank = int(ctx.Rank)
	sum := make([]int64, a.elems)
	for r := 0; r < ctx.Size; r++ {
		v := allreduceVector(a.seed, r, a.elems)
		for i := range sum {
			sum[i] += v[i]
		}
		if r == int(ctx.Rank) {
			a.contrib = mpi.Int64Bytes(v)
		}
	}
	a.want = mpi.Int64Bytes(sum)
	return nil
}

func (a *allreduceApp) Snapshot() ([]byte, error) {
	return a.h.snapshot(a.rank, func() ([]byte, error) {
		w := wire.NewWriter(8)
		w.I64(a.step)
		return w.Bytes(), nil
	})
}

func (a *allreduceApp) Restore(ctx *proc.Ctx, state []byte) error {
	return a.h.restore(int(ctx.Rank), func() error {
		r := wire.NewReader(state)
		a.step = r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		return a.Init(ctx)
	})
}

func (a *allreduceApp) Step(ctx *proc.Ctx) (bool, error) {
	rank, size := int64(ctx.Rank), int64(ctx.Size)
	var vote uint64
	if rank == 0 && a.h.stop.Load() {
		vote = 1
	}
	binary.LittleEndian.PutUint64(a.contrib[0:], vote)
	binary.LittleEndian.PutUint64(a.contrib[8:], uint64(a.step*(rank+1)))

	start := now()
	res, err := ctx.Comm.Allreduce(a.contrib, mpi.SumInt64)
	called := now()
	if err != nil {
		return false, err
	}
	wantCtr := uint64(a.step * size * (size + 1) / 2)
	if a.step == a.wrongAt {
		wantCtr++
	}
	votes := binary.LittleEndian.Uint64(res[0:])
	if len(res) != len(a.want) || binary.LittleEndian.Uint64(res[8:]) != wantCtr ||
		!bytes.Equal(res[allreduceDynamic:], a.want[allreduceDynamic:]) {
		if rank == 0 {
			a.h.fail("allreduce step %d: result differs from the expected sum", a.step)
		}
	}
	// The Rabenseifner result is a pooled buffer the caller owns.
	wire.PutBuf(res)
	end := now()

	parent := a.h.stepDone(int(rank), a.step, ival{start, end})
	a.h.commDone(int(rank), a.step, parent, "mpi.allreduce", ival{start, called})
	a.step++
	return votes > 0, nil
}

// ---- jacobi_sync_disk: apps.Jacobi under a timing wrapper ----

// jacobiApp is apps.Jacobi with timed calls. The job is submitted with an
// unreachable iteration count; to finish it the harness publishes one final
// iteration well ahead of every rank (neighbours are at most one halo
// exchange apart), which each rank installs before its next step.
type jacobiApp struct {
	*apps.Jacobi
	h    *hook
	rank int // Snapshot gets no context, so Init and Restore remember it
	step int64
}

func newJacobiApp(args []byte) (proc.App, error) {
	h, rest, err := hookOf(args)
	if err != nil {
		return nil, err
	}
	j, err := apps.DecodeJacobi(rest)
	if err != nil {
		return nil, err
	}
	return &jacobiApp{Jacobi: j, h: h}, nil
}

func (a *jacobiApp) Init(ctx *proc.Ctx) error {
	a.rank = int(ctx.Rank)
	return a.Jacobi.Init(ctx)
}

func (a *jacobiApp) Restore(ctx *proc.Ctx, state []byte) error {
	a.rank = int(ctx.Rank)
	return a.h.restore(a.rank, func() error { return a.Jacobi.Restore(ctx, state) })
}

func (a *jacobiApp) Snapshot() ([]byte, error) {
	return a.h.snapshot(a.rank, a.Jacobi.Snapshot)
}

func (a *jacobiApp) Step(ctx *proc.Ctx) (bool, error) {
	if at := a.h.stopAt.Load(); at > 0 {
		a.Jacobi.Iters = at
	}
	start := now()
	done, err := a.Jacobi.Step(ctx)
	if !done && err == nil {
		// The last Step gathers and verifies; it is not a relaxation step.
		a.h.stepDone(a.rank, a.step, ival{start, now()})
		a.step++
	}
	return done, err
}

// ---- vmheap_delta_mem: proc.VMApp under a timing wrapper ----

// Globals of the heap-writer VM program.
const (
	gCount  = iota // outer iterations completed (one heap write each)
	gLimit         // iterations to run; the harness lowers it to finish the job
	gAddr          // next heap word to write
	gStride        // address increment, in words
	gHeap          // heap size, in words
	gInner         // compute iterations between two heap writes
	gX             // the computed value: a 64-bit LCG state
	gI             // inner loop counter
	vmGlobals
)

// LCG constants of the VM program's computation (Knuth's MMIX).
const (
	lcgA int64 = 6364136223846793005
	lcgC int64 = 1442695040888963407
)

// heapWriterSource computes gInner LCG steps, stores the result into one
// heap word, advances the address by gStride and repeats until gCount
// reaches gLimit. One Step of the job is exactly one iteration (see
// heapWriterIteration), so every Step — and every checkpoint — finds the
// machine at the loop head with an empty stack: the image keeps its layout
// from one epoch to the next and only the written heap blocks differ.
var heapWriterSource = fmt.Sprintf(`
outer:  loadg %[1]d
        loadg %[2]d
        lt
        jz done
        loadg %[6]d
        storeg %[8]d
inner:  loadg %[8]d
        jz write
        loadg %[7]d
        push %[9]d
        mul
        push %[10]d
        add
        storeg %[7]d
        loadg %[8]d
        push 1
        sub
        storeg %[8]d
        jmp inner
write:  loadg %[3]d
        loadg %[7]d
        storem
        loadg %[3]d
        loadg %[4]d
        add
        loadg %[5]d
        mod
        storeg %[3]d
        loadg %[1]d
        push 1
        add
        storeg %[1]d
        jmp outer
done:   halt
`, gCount, gLimit, gAddr, gStride, gHeap, gInner, gX, gI, lcgA, lcgC)

// vmHeapParams sizes the heap-writer program.
type vmHeapParams struct {
	heapWords int
	inner     int64 // compute iterations per heap write
	addr      int64 // seeded start address
	stride    int64 // seeded stride, in words
}

// vmHeapSeeded derives the seeded start address and stride. The stride is
// about two fifths of a 4 KiB block, so the writes of an epoch of every
// checkpoint cadences sweep a tenth of the heap's blocks, give or take the
// seed's share: 0.39 to 0.43 blocks per write.
func vmHeapSeeded(seed int64, heapWords int) (addr, stride int64) {
	rng := rand.New(rand.NewSource(seed))
	return rng.Int63n(int64(heapWords)), 200 + rng.Int63n(21)
}

func (p vmHeapParams) vmAppGlobals() []int64 {
	g := make([]int64, vmGlobals)
	g[gLimit] = 1 << 62
	g[gAddr], g[gStride] = p.addr, p.stride
	g[gHeap], g[gInner] = int64(p.heapWords), p.inner
	g[gX] = p.addr + 1
	return g
}

func (p vmHeapParams) vmApp() *proc.VMApp {
	g := p.vmAppGlobals()
	return &proc.VMApp{
		StepSlice: heapWriterIteration(p.inner), Source: heapWriterSource,
		NGlobals: vmGlobals, Globals: g, HeapWords: p.heapWords,
	}
}

// vmHeapApp is proc.VMApp with timed calls. It embeds the concrete type, so
// the runtime still sees VMApp's optional DirtySpans method.
type vmHeapApp struct {
	*proc.VMApp
	h       *hook
	rank    int
	step    int64
	x0      int64 // initial LCG state, for the final check
	stopped bool
	prev    []byte // traced, rank 0: previous snapshot, for the dirty share
}

func newVMHeapApp(args []byte) (proc.App, error) {
	h, rest, err := hookOf(args)
	if err != nil {
		return nil, err
	}
	v, err := proc.DecodeVMApp(rest)
	if err != nil {
		return nil, err
	}
	if len(v.Globals) != vmGlobals {
		return nil, fmt.Errorf("bench: vmheap wants %d globals, got %d", vmGlobals, len(v.Globals))
	}
	return &vmHeapApp{VMApp: v, h: h, x0: v.Globals[gX]}, nil
}

func (a *vmHeapApp) Init(ctx *proc.Ctx) error {
	a.rank = int(ctx.Rank)
	return a.VMApp.Init(ctx)
}

func (a *vmHeapApp) Restore(ctx *proc.Ctx, state []byte) error {
	a.rank = int(ctx.Rank)
	return a.h.restore(a.rank, func() error { return a.VMApp.Restore(ctx, state) })
}

func (a *vmHeapApp) Snapshot() ([]byte, error) {
	img, err := a.h.snapshot(a.rank, a.VMApp.Snapshot)
	if err == nil && a.h.tr != nil && a.rank == 0 {
		if a.prev != nil {
			a.h.mu.Lock()
			a.h.dirty = append(a.h.dirty, changedBlockShare(a.prev, img))
			a.h.mu.Unlock()
		}
		a.prev = img // the runtime copies the state into the image, never edits it
	}
	return img, err
}

// changedBlockShare is the share of next's 4 KiB blocks that differ from
// prev's.
func changedBlockShare(prev, next []byte) float64 {
	const block = 4096
	n, changed := 0, 0
	for lo := 0; lo < len(next); lo += block {
		hi := min(lo+block, len(next))
		n++
		if hi > len(prev) || !bytes.Equal(prev[lo:hi], next[lo:hi]) {
			changed++
		}
	}
	return float64(changed) / float64(max(n, 1))
}

func (a *vmHeapApp) Step(ctx *proc.Ctx) (bool, error) {
	if !a.stopped && a.h.stop.Load() {
		// Between two iterations: let the program run one more and halt.
		a.stopped = true
		g := a.VM().Globals
		g[gLimit] = g[gCount] + 1
	}
	start := now()
	done, err := a.VMApp.Step(ctx)
	a.h.stepDone(a.rank, a.step, ival{start, now()})
	a.step++
	if done && err == nil {
		err = a.verify()
	}
	return done, err
}

// heapWriterRun executes the program for limit iterations on a small heap
// and returns the instructions it took (the program executes the same
// instructions whatever the heap holds).
func heapWriterRun(inner, limit int64) uint64 {
	p := vmHeapParams{heapWords: 1024, inner: inner, addr: 1, stride: 213}
	g := p.vmAppGlobals()
	g[gLimit] = limit
	prog, err := svm.Assemble(heapWriterSource)
	if err != nil {
		panic("bench: heap-writer program: " + err.Error())
	}
	vm := svm.New(svm.Machines[5], prog, vmGlobals)
	copy(vm.Globals, g)
	vm.Grow(p.heapWords)
	if err := vm.Run(1 << 40); err != nil {
		panic("bench: heap-writer program: " + err.Error())
	}
	return vm.Steps
}

// heapWriterIteration is the instruction count of one loop iteration.
func heapWriterIteration(inner int64) int {
	return int(heapWriterRun(inner, 2) - heapWriterRun(inner, 1))
}

// heapWriterSteps is the instruction count of a run of count iterations.
func heapWriterSteps(inner, count int64) uint64 {
	per := uint64(heapWriterIteration(inner))
	return heapWriterRun(inner, 1) - per + uint64(count)*per
}

// verify checks the halted machine against an independent recomputation:
// the iteration counter reached its limit, the executed instruction count
// is what that many iterations take, and the computed value is the LCG
// state after that many steps.
func (a *vmHeapApp) verify() error {
	vm := a.VM()
	g := vm.Globals
	count := g[gCount]
	if count != g[gLimit] {
		return fmt.Errorf("vmheap rank %d: halted at iteration %d, limit %d", a.rank, count, g[gLimit])
	}
	if wantSteps := heapWriterSteps(g[gInner], count); vm.Steps != wantSteps {
		return fmt.Errorf("vmheap rank %d: executed %d instructions, %d iterations take %d",
			a.rank, vm.Steps, count, wantSteps)
	}
	x := a.x0
	for i := int64(0); i < count*g[gInner]; i++ {
		x = x*lcgA + lcgC
	}
	if g[gX] != x {
		return fmt.Errorf("vmheap rank %d: computed value %d, want %d", a.rank, g[gX], x)
	}
	last := ((g[gAddr]-g[gStride])%g[gHeap] + g[gHeap]) % g[gHeap]
	if vm.Mem[last] != x {
		return fmt.Errorf("vmheap rank %d: heap word %d holds %d, want %d", a.rank, last, vm.Mem[last], x)
	}
	return nil
}

// ---- kill_recover: token ring with ballast ----

// ringStateApp is a token ring (the lock-step pattern of apps.Ring) whose
// ranks each carry a ballast of state, so checkpoints and restores move
// real bytes. One ballast byte changes per round; at exit the ring value
// and the whole ballast are checked against a from-scratch recomputation,
// so a run that was killed and restored must end exactly where an
// undisturbed run would.
type ringStateApp struct {
	h      *hook
	rank   int
	rounds int64
	seed   int64
	size   int // ballast bytes

	round    int64
	val      int64
	ballast  []byte
	restored bool // the next Step is the first after a Restore
}

const (
	ringStateTag  int32 = 1000
	ringStateTags       = 1024
)

func ringStateArgs(rounds, seed int64, ballastBytes int) []byte {
	w := wire.NewWriter(24)
	w.I64(rounds).I64(seed).U32(uint32(ballastBytes))
	return w.Bytes()
}

func newRingStateApp(args []byte) (proc.App, error) {
	h, rest, err := hookOf(args)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(rest)
	a := &ringStateApp{h: h, rounds: r.I64(), seed: r.I64(), size: int(r.U32())}
	if r.Err() != nil || a.size <= 0 {
		return nil, fmt.Errorf("bench: bad ringstate arguments")
	}
	return a, nil
}

// ringBallast is rank's seeded initial ballast.
func ringBallast(seed int64, rank, size int) []byte {
	b := make([]byte, size)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank) + 1
	for i := 0; i+8 <= size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// mutate applies round's one-byte ballast change.
func ringMutate(b []byte, round int64) {
	b[int((round*40503)%int64(len(b)))] += byte(round) | 1
}

func (a *ringStateApp) Init(ctx *proc.Ctx) error {
	a.rank = int(ctx.Rank)
	a.val = int64(ctx.Rank)
	a.ballast = ringBallast(a.seed, a.rank, a.size)
	return nil
}

func (a *ringStateApp) Snapshot() ([]byte, error) {
	return a.h.snapshot(a.rank, func() ([]byte, error) {
		w := wire.NewWriter(32 + len(a.ballast))
		w.I64(a.round).I64(a.val).Bytes32(a.ballast)
		return w.Bytes(), nil
	})
}

func (a *ringStateApp) Restore(ctx *proc.Ctx, state []byte) error {
	a.rank = int(ctx.Rank)
	return a.h.restore(a.rank, func() error {
		r := wire.NewReader(state)
		a.round, a.val = r.I64(), r.I64()
		a.ballast = append([]byte(nil), r.Bytes32()...)
		a.restored = true
		return r.Err()
	})
}

func (a *ringStateApp) Step(ctx *proc.Ctx) (bool, error) {
	n := int64(ctx.Size)
	if a.round >= a.rounds {
		return true, a.verify(n)
	}
	start := now()
	right := wire.Rank((int64(ctx.Rank) + 1) % n)
	left := wire.Rank((int64(ctx.Rank) - 1 + n) % n)
	// The round is part of the tag, so a token is matched to its round
	// even if the receive queue holds tokens out of order — which a
	// restore can produce today (README, known findings).
	tag := ringStateTag + int32(a.round%ringStateTags)
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(a.val))
	if err := ctx.Comm.Send(right, tag, out[:]); err != nil {
		return false, err
	}
	data, _, err := ctx.Comm.Recv(left, tag)
	if err != nil {
		return false, err
	}
	called := now()
	if len(data) != 8 {
		return false, fmt.Errorf("ringstate rank %d: %d-byte token", a.rank, len(data))
	}
	a.val = int64(binary.LittleEndian.Uint64(data)) + 1
	ringMutate(a.ballast, a.round)
	end := now()
	parent := a.h.stepDone(a.rank, a.round, ival{start, end})
	a.h.commDone(a.rank, a.round, parent, "mpi.sendrecv", ival{start, called})
	a.round++
	if a.restored {
		a.restored = false
		a.h.firstStepDone(a.rank, end)
	}
	return false, nil
}

func (a *ringStateApp) verify(n int64) error {
	want := ((int64(a.rank)-a.rounds)%n+n)%n + a.rounds
	if a.val != want {
		return fmt.Errorf("ringstate rank %d: value %d, want %d", a.rank, a.val, want)
	}
	ref := ringBallast(a.seed, a.rank, a.size)
	for r := int64(0); r < a.rounds; r++ {
		ringMutate(ref, r)
	}
	if !bytes.Equal(ref, a.ballast) {
		return fmt.Errorf("ringstate rank %d: ballast differs from an undisturbed run's", a.rank)
	}
	return nil
}
