package proc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/mpi"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// ringApp is a self-verifying BSP application: every step each rank sends
// its value right and receives from the left, setting val = received + 1.
// After R rounds rank i must hold ((i-R) mod n) + R; Step returns an error
// if the invariant fails at completion, so a test only has to check that
// all ranks finished cleanly.
type ringApp struct {
	rounds int64
	round  int64
	val    int64
}

const ringTag int32 = 7

func init() {
	Register("test-ring", func(args []byte) (App, error) {
		r := wire.NewReader(args)
		a := &ringApp{rounds: r.I64()}
		return a, r.Err()
	})
}

func ringArgs(rounds int64) []byte {
	w := wire.NewWriter(8)
	w.I64(rounds)
	return w.Bytes()
}

func (a *ringApp) Init(ctx *Ctx) error {
	a.val = int64(ctx.Rank)
	return nil
}

func (a *ringApp) Restore(_ *Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.rounds, a.round, a.val = r.I64(), r.I64(), r.I64()
	return r.Err()
}

func (a *ringApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(24)
	w.I64(a.rounds).I64(a.round).I64(a.val)
	return w.Bytes(), nil
}

func (a *ringApp) Step(ctx *Ctx) (bool, error) {
	n := int64(ctx.Size)
	if a.round >= a.rounds {
		want := (int64(ctx.Rank)-a.rounds)%n + a.rounds
		for want < a.rounds { // Go's % can be negative
			want += n
		}
		want = ((int64(ctx.Rank)-a.rounds)%n+n)%n + a.rounds
		if a.val != want {
			return true, fmt.Errorf("rank %d: val %d, want %d", ctx.Rank, a.val, want)
		}
		return true, nil
	}
	right := wire.Rank((int64(ctx.Rank) + 1) % n)
	left := wire.Rank((int64(ctx.Rank) - 1 + n) % n)
	w := wire.NewWriter(8)
	w.I64(a.val)
	if err := ctx.Comm.Send(right, ringTag, w.Bytes()); err != nil {
		return false, err
	}
	data, _, err := ctx.Comm.Recv(left, ringTag)
	if err != nil {
		return false, err
	}
	r := wire.NewReader(data)
	a.val = r.I64() + 1
	if r.Err() != nil {
		return false, r.Err()
	}
	a.round++
	return false, nil
}

// harness plays the daemons for a set of processes: it relays checkpoint
// and coordination messages to every process (the lightweight-group cast)
// in a single total order, and collects completion reports.
type harness struct {
	t testing.TB
	// tr is what the processes' NICs run on: a fastnet, unless a test
	// wraps it before launch.
	tr    vni.Transport
	store *ckpt.Store
	spec  AppSpec
	gen   uint32
	// events, when set before launch, receives every process's records;
	// back, when set, is the processes' store in store's place.
	events evstore.Sink
	back   ckpt.Backend

	mu     sync.Mutex
	procs  []*Process
	doneCh chan doneEvent

	relayq chan wire.Msg
	stop   chan struct{}
}

type doneEvent struct {
	gen  uint32
	rank wire.Rank
	err  string
}

func newHarness(t testing.TB, spec AppSpec) *harness {
	t.Helper()
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:      t,
		tr:     vni.NewFastnet(0),
		store:  store,
		spec:   spec,
		doneCh: make(chan doneEvent, 64),
		relayq: make(chan wire.Msg, 1024),
		stop:   make(chan struct{}),
	}
	go h.relay()
	t.Cleanup(func() {
		close(h.stop)
		h.closeAll()
		// A process stores nothing once done: wait for that before the
		// store's directory goes.
		h.mu.Lock()
		procs := h.procs
		h.mu.Unlock()
		for _, p := range procs {
			if p != nil {
				<-p.Done()
			}
		}
	})
	return h
}

// closeAll tears the current incarnation down, as its daemons do.
func (h *harness) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.procs {
		if p != nil {
			p.Close()
		}
	}
}

// relay broadcasts lightweight-group traffic in one total order.
func (h *harness) relay() {
	for {
		select {
		case <-h.stop:
			return
		case m := <-h.relayq:
			h.mu.Lock()
			procs := append([]*Process(nil), h.procs...)
			h.mu.Unlock()
			for _, p := range procs {
				if p != nil {
					p.Deliver(m)
				}
			}
		}
	}
}

// fromProcess is the daemon's side of one process's sends.
func (h *harness) fromProcess(gen uint32, rank wire.Rank, m wire.Msg) {
	switch m.Type {
	case wire.TConfiguration:
		if m.Kind == CfgDone {
			select {
			case h.doneCh <- doneEvent{gen: gen, rank: rank, err: string(m.Payload)}:
			case <-h.stop:
			}
		}
	case wire.TCheckpoint, wire.TCoordination:
		select {
		case h.relayq <- m:
		case <-h.stop:
		}
	}
}

// launch starts a fresh or restored incarnation.
func (h *harness) launch(line ckpt.RecoveryLine) {
	h.t.Helper()
	h.closeAll()
	h.mu.Lock()
	h.gen++
	gen := h.gen
	n := h.spec.Ranks
	h.procs = make([]*Process, n)
	h.mu.Unlock()

	var store ckpt.Backend = h.store
	if h.back != nil {
		store = h.back
	}
	addrs := make(map[wire.Rank]string, n)
	for i := 0; i < n; i++ {
		rank := wire.Rank(i)
		p, err := New(Config{
			Spec:       h.spec,
			Rank:       rank,
			Arch:       svm.Machines[i%len(svm.Machines)],
			Store:      store,
			ToDaemon:   func(m wire.Msg) { h.fromProcess(gen, rank, m) },
			Events:     h.events,
			Transport:  h.tr,
			ListenAddr: fmt.Sprintf("app%d-g%d-r%d", h.spec.ID, gen, i),
		})
		if err != nil {
			h.t.Fatal(err)
		}
		h.mu.Lock()
		h.procs[i] = p
		h.mu.Unlock()
		addrs[rank] = p.Addr()
		p.Start()
	}

	var next uint64 = 1
	for _, idx := range line {
		if idx >= next {
			next = idx + 1
		}
	}
	for i := 0; i < n; i++ {
		si := StartInfo{
			Gen: gen, Size: n, Addrs: addrs,
			NextCkptIndex: next,
		}
		if line != nil {
			si.Restore = true
			si.RestoreIndex = line[wire.Rank(i)]
			si.Line = map[wire.Rank]uint64(line)
		}
		h.sendTo(wire.Rank(i), wire.Msg{
			Type: wire.TConfiguration, Kind: CfgStart, App: h.spec.ID,
			Payload: si.Encode(),
		})
	}
}

func (h *harness) sendTo(rank wire.Rank, m wire.Msg) {
	h.mu.Lock()
	p := h.procs[rank]
	h.mu.Unlock()
	if p != nil {
		p.Deliver(m)
	}
}

// waitAll blocks until every rank reported done; it fails the test on any
// rank error.
func (h *harness) waitAll() {
	h.t.Helper()
	h.waitAllExpect(nil)
}

func (h *harness) waitAllExpect(okErr func(string) bool) {
	h.t.Helper()
	h.mu.Lock()
	gen := h.gen
	h.mu.Unlock()
	got := map[wire.Rank]bool{}
	deadline := time.After(30 * time.Second)
	for len(got) < h.spec.Ranks {
		select {
		case d := <-h.doneCh:
			if d.gen != gen || got[d.rank] {
				continue
			}
			got[d.rank] = true
			if d.err != "" && (okErr == nil || !okErr(d.err)) {
				h.t.Fatalf("rank %d failed: %s", d.rank, d.err)
			}
		case <-deadline:
			h.t.Fatalf("timeout: only %d/%d ranks finished", len(got), h.spec.Ranks)
		}
	}
	// Every rank reported done: tear the incarnation down (this is what
	// the daemons do), releasing processes still serving protocol
	// traffic.
	h.closeAll()
}

// abortAll kills the current incarnation and waits for the processes to
// exit.
func (h *harness) abortAll() {
	h.t.Helper()
	h.mu.Lock()
	procs := append([]*Process(nil), h.procs...)
	h.mu.Unlock()
	h.closeAll()
	for _, p := range procs {
		select {
		case <-p.Done():
		case <-time.After(60 * time.Second):
			h.t.Fatal("process did not abort")
		}
	}
	// Drain stale done reports.
	for {
		select {
		case <-h.doneCh:
		default:
			return
		}
	}
}

// waitForCommittedLine polls the store until a coordinated recovery line
// exists.
func (h *harness) waitForCommittedLine() ckpt.RecoveryLine {
	h.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if line, err := h.store.CommittedLine(h.spec.ID); err == nil {
			return line
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatal("no committed recovery line appeared")
	return nil
}

// waitForIndependentCkpts polls until every rank has at least one
// checkpoint.
func (h *harness) waitForIndependentCkpts() {
	h.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for r := 0; r < h.spec.Ranks; r++ {
			ns, _ := h.store.List(h.spec.ID, wire.Rank(r))
			if len(ns) == 0 {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatal("independent checkpoints did not appear")
}

func ringSpec(id wire.AppID, ranks int, rounds int64) AppSpec {
	return AppSpec{
		ID: id, Name: "test-ring", Args: ringArgs(rounds),
		Ranks: ranks, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: PolicyRestart,
	}
}

func TestRingAppCompletes(t *testing.T) {
	h := newHarness(t, ringSpec(1, 3, 30))
	h.launch(nil)
	h.waitAll()
}

func TestVMAppRunsToCompletion(t *testing.T) {
	vmArgs := EncodeVMApp(&VMApp{
		StepSlice: 50,
		NGlobals:  2,
		Globals:   []int64{0, 100},
		Source: `
        push 0
        storeg 0
loop:   loadg 1
        jz done
        loadg 0
        loadg 1
        add
        storeg 0
        loadg 1
        push 1
        sub
        storeg 1
        jmp loop
done:   loadg 0
        out
        halt`,
	})
	spec := AppSpec{
		ID: 2, Name: VMAppName, Args: vmArgs, Ranks: 2,
		Protocol: ckpt.Independent, Encoder: ckpt.Portable, Policy: PolicyRestart,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitAll()
}

func TestStopAndSyncCheckpointAndRestart(t *testing.T) {
	spec := ringSpec(3, 3, 400)
	spec.Protocol = ckpt.StopAndSync
	spec.CkptEverySteps = 10
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitForCommittedLine()
	h.abortAll()
	// Read the line once nothing runs: a commit between an earlier read and
	// the abort would already have collected that line's checkpoints.
	line := h.waitForCommittedLine()

	// Restart the whole application from the committed line; the
	// self-verifying app proves the resumed computation is correct.
	h.launch(line)
	h.waitAll()

	// The line must be uniform (coordinated checkpoint).
	var idx uint64
	for _, n := range line {
		if idx == 0 {
			idx = n
		}
		if n != idx || n == 0 {
			t.Errorf("non-uniform coordinated line: %v", line)
		}
	}
}

// TestRecordingStopsWhenRoundFinalizes: a stop-and-sync round records every
// channel from its cut until it finalizes, and not a message longer — traffic
// between rounds must not be copied into a list nobody reads.
func TestRecordingStopsWhenRoundFinalizes(t *testing.T) {
	spec := ringSpec(8, 3, 1<<40) // runs until aborted
	spec.Protocol = ckpt.StopAndSync
	h := newHarness(t, spec)
	h.launch(nil)
	h.sendTo(0, wire.Msg{Type: wire.TConfiguration, Kind: CfgCkptNow, App: spec.ID})
	// The line commits after every rank finalized its round and acked.
	h.waitForCommittedLine()
	h.mu.Lock()
	procs := append([]*Process(nil), h.procs...)
	h.mu.Unlock()
	for _, p := range procs {
		p.cmu.Lock()
		comm := p.comm
		p.cmu.Unlock()
		left := wire.Rank((int(p.rank) + spec.Ranks - 1) % spec.Ranks)
		start := comm.RecvCounts()[left]
		deadline := time.Now().Add(20 * time.Second)
		for comm.RecvCounts()[left] < start+500 {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d: ring stopped making progress after the commit", p.rank)
			}
			time.Sleep(time.Millisecond)
		}
		if rec := comm.TakeRecorded(); len(rec) != 0 {
			t.Errorf("rank %d: %d messages recorded after the round finalized", p.rank, len(rec))
		}
	}
	h.abortAll()
}

func TestChandyLamportCheckpointAndRestart(t *testing.T) {
	spec := ringSpec(4, 3, 400)
	spec.Protocol = ckpt.ChandyLamport
	spec.CkptEverySteps = 10
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitForCommittedLine()
	h.abortAll()
	// Read the line once nothing runs: a commit between an earlier read and
	// the abort would already have collected that line's checkpoints.
	line := h.waitForCommittedLine()
	h.launch(line)
	h.waitAll()
}

func TestIndependentCheckpointAndRestart(t *testing.T) {
	spec := ringSpec(5, 3, 400)
	spec.Protocol = ckpt.Independent
	spec.CkptEverySteps = 15
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitForIndependentCkpts()
	h.abortAll()

	line, err := ckpt.GatherLine(h.store, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.launch(line)
	h.waitAll()
}

func TestIndependentRestartFromScratchLine(t *testing.T) {
	// Abort before any checkpoints: GatherLine fails (no checkpoints), so
	// restart is a fresh launch — exercise the zero-index path by
	// restarting with an explicit all-zero line.
	spec := ringSpec(6, 2, 200)
	spec.Protocol = ckpt.Independent
	h := newHarness(t, spec)
	h.launch(nil)
	h.abortAll()
	h.launch(ckpt.RecoveryLine{0: 0, 1: 0})
	h.waitAll()
}

// ckptOnceApp finishes at step 10; its rank 0 requests a user-initiated
// checkpoint at step 3. (The ranks exchange no messages, so a request from
// rank 1 as well could land on either side of round 1's commit.)
type ckptOnceApp struct{ step int }

func init() {
	Register("test-ckpt-once", func([]byte) (App, error) { return &ckptOnceApp{}, nil })
}

func (a *ckptOnceApp) Init(*Ctx) error { return nil }
func (a *ckptOnceApp) Restore(_ *Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.step = int(r.I64())
	return r.Err()
}
func (a *ckptOnceApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(8)
	w.I64(int64(a.step))
	return w.Bytes(), nil
}
func (a *ckptOnceApp) Step(ctx *Ctx) (bool, error) {
	a.step++
	if a.step == 3 && ctx.Rank == 0 {
		ctx.RequestCheckpoint()
	}
	return a.step >= 10, nil
}

func TestUserInitiatedCheckpoint(t *testing.T) {
	spec := AppSpec{
		ID: 7, Name: "test-ckpt-once", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Native, Policy: PolicyRestart,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitAll()
	line, err := h.store.CommittedLine(spec.ID)
	if err != nil {
		t.Fatalf("user-initiated checkpoint was not committed: %v", err)
	}
	if line[0] != 1 || line[1] != 1 {
		t.Errorf("line = %v", line)
	}
}

// ckptGates pace ckptGatedApp from the test: rank 0 requests a checkpoint at
// step 3, rank 1 once afterCommit is closed, and both idle at step boundaries
// until finish is closed.
var ckptGates struct{ afterCommit, finish chan struct{} }

type ckptGatedApp struct {
	step      int
	requested bool
}

func init() {
	Register("test-ckpt-gated", func([]byte) (App, error) { return &ckptGatedApp{}, nil })
}

func (a *ckptGatedApp) Init(*Ctx) error            { return nil }
func (a *ckptGatedApp) Restore(*Ctx, []byte) error { return nil }
func (a *ckptGatedApp) Snapshot() ([]byte, error)  { return nil, nil }
func (a *ckptGatedApp) Step(ctx *Ctx) (bool, error) {
	a.step++
	if ctx.Rank == 0 && a.step == 3 {
		ctx.RequestCheckpoint()
	}
	if ctx.Rank == 1 && !a.requested {
		select {
		case <-ckptGates.afterCommit:
			ctx.RequestCheckpoint()
			a.requested = true
		default:
		}
	}
	select {
	case <-ckptGates.finish:
		return true, nil
	default:
		time.Sleep(time.Millisecond)
		return false, nil
	}
}

// commitCounter counts the "commit" records the processes emit.
type commitCounter struct{ n atomic.Int32 }

func (c *commitCounter) Emit(r evstore.Record) {
	if r.Kind == "commit" {
		c.n.Add(1)
	}
}

// TestRequestAfterCommitOpensNextRound: a checkpoint request made after a
// round committed is not folded into that round — it opens the next one, and
// nothing opens a third.
func TestRequestAfterCommitOpensNextRound(t *testing.T) {
	ckptGates.afterCommit, ckptGates.finish = make(chan struct{}), make(chan struct{})
	spec := AppSpec{
		ID: 10, Name: "test-ckpt-gated", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Native, Policy: PolicyRestart,
	}
	h := newHarness(t, spec)
	commits := &commitCounter{}
	h.events = commits
	h.launch(nil)
	if line := h.waitForCommittedLine(); line[0] != 1 || line[1] != 1 {
		t.Fatalf("first line = %v, want {1,1}", line)
	}
	close(ckptGates.afterCommit)
	deadline := time.Now().Add(20 * time.Second)
	for {
		line, err := h.store.CommittedLine(spec.ID)
		if err == nil && line[0] == 2 && line[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round 2 never committed: line = %v, err = %v", line, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(ckptGates.finish)
	h.waitAll()
	line, err := h.store.CommittedLine(spec.ID)
	if err != nil || line[0] != 2 || line[1] != 2 {
		t.Errorf("final line = %v, err = %v, want {2,2}", line, err)
	}
	if n := commits.n.Load(); n != 2 {
		t.Errorf("%d commit events, want 2", n)
	}
}

// viewApp waits until a view upcall reports a departure, then finishes.
type viewApp struct {
	departed chan []wire.Rank
}

func init() {
	Register("test-view", func([]byte) (App, error) {
		return &viewApp{departed: make(chan []wire.Rank, 1)}, nil
	})
}

func (a *viewApp) Init(ctx *Ctx) error {
	ctx.OnView(func(alive, departed []wire.Rank) {
		if len(departed) > 0 {
			select {
			case a.departed <- departed:
			default:
			}
		}
	})
	return nil
}
func (a *viewApp) Restore(*Ctx, []byte) error { return nil }
func (a *viewApp) Snapshot() ([]byte, error)  { return nil, nil }
func (a *viewApp) Step(ctx *Ctx) (bool, error) {
	select {
	case departed := <-a.departed:
		if len(departed) != 1 || departed[0] != 1 {
			return true, fmt.Errorf("departed = %v", departed)
		}
		alive := ctx.Comm.Alive()
		if len(alive) != 1 || alive[0] != 0 {
			return true, fmt.Errorf("alive = %v", alive)
		}
		return true, nil
	default:
		time.Sleep(time.Millisecond)
		return false, nil
	}
}

func TestViewUpcallAndDeadMarking(t *testing.T) {
	spec := AppSpec{
		ID: 8, Name: "test-view", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyNotify,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	// Simulate the daemon reporting rank 1's node crash to rank 0.
	v := LWViewInfo{Alive: []wire.Rank{0}, Departed: []wire.Rank{1}}
	h.sendTo(0, wire.Msg{Type: wire.TLWMembership, Kind: LWViewKind, App: spec.ID, Payload: v.Encode()})
	// Rank 1 is "dead": its daemon closes it; rank 0 must complete cleanly.
	h.mu.Lock()
	h.procs[1].Close()
	h.mu.Unlock()
	select {
	case d := <-h.doneCh:
		if d.rank != 0 || d.err != "" {
			t.Fatalf("rank %d reported done with %q, want rank 0 with no error", d.rank, d.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rank 0 never finished")
	}
}

func TestSuspendResume(t *testing.T) {
	spec := ringSpec(9, 2, 100)
	h := newHarness(t, spec)
	h.launch(nil)
	for r := 0; r < 2; r++ {
		h.sendTo(wire.Rank(r), wire.Msg{Type: wire.TConfiguration, Kind: CfgSuspend})
	}
	// While suspended nothing should complete.
	select {
	case d := <-h.doneCh:
		t.Fatalf("rank %d finished while suspended (%q)", d.rank, d.err)
	case <-time.After(50 * time.Millisecond):
	}
	for r := 0; r < 2; r++ {
		h.sendTo(wire.Rank(r), wire.Msg{Type: wire.TConfiguration, Kind: CfgResume})
	}
	h.waitAll()
}

// lateApp: rank 0 sends rank 1 one message, tagged lateTag, at its first
// step, and idles until lateGates.finish is closed. Rank 1 idles as well or,
// with args {1}, finishes at its first step. Nobody receives the message: to a
// checkpoint it is pending or channel state.
type lateApp struct{ finishes bool }

const lateTag int32 = 23

// lateGates: sent is closed when rank 0 has sent its message.
var lateGates struct{ sent, finish chan struct{} }

func init() {
	Register("test-late", func(args []byte) (App, error) {
		return &lateApp{finishes: len(args) > 0 && args[0] == 1}, nil
	})
}

func (a *lateApp) Init(*Ctx) error            { return nil }
func (a *lateApp) Restore(*Ctx, []byte) error { return nil }
func (a *lateApp) Snapshot() ([]byte, error)  { return nil, nil }
func (a *lateApp) Step(ctx *Ctx) (bool, error) {
	if ctx.Rank == 0 && lateGates.sent != nil {
		if err := ctx.Comm.Send(1, lateTag, []byte("late")); err != nil {
			return true, err
		}
		close(lateGates.sent)
		lateGates.sent = nil
	}
	if ctx.Rank == 1 && a.finishes {
		return true, nil
	}
	select {
	case <-lateGates.finish:
		return true, nil
	case <-time.After(time.Millisecond):
		return false, nil
	}
}

// lateGate wraps the harness's transport: it takes the data message tagged
// lateTag from its sender at once and delivers it only once release is
// closed, on a goroutine of its own, as a TCP connection's reader may deliver
// a message after the control plane carried the round's flushes.
type lateGate struct {
	vni.Transport
	release chan struct{}
}

func (g *lateGate) Dial(addr string) (vni.Conn, error) {
	c, err := g.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return lateConn{Conn: c, g: g}, nil
}

type lateConn struct {
	vni.Conn
	g *lateGate
}

func (c lateConn) Send(m *wire.Msg) error {
	if m.Type != wire.TData || m.Tag != lateTag {
		return c.Conn.Send(m)
	}
	out := *m
	if !m.Pooled {
		out = m.Clone()
	}
	go func() {
		<-c.g.release
		c.Conn.Send(&out)
	}()
	return nil
}

// TestBlockedRankCompletesDrain: a rank whose stop-and-sync drain still
// awaits a data message when the round's last flush reaches it completes the
// drain when the message arrives, whether its loop is suspended, its
// application has finished, or it is running and receives nothing else: the
// arrival wakes the loop, which hands the epoch off, and the line commits.
// Suspended, the rank commits before it is resumed; finished, it hands off
// with no timer to wait on.
func TestBlockedRankCompletesDrain(t *testing.T) {
	for i, state := range []string{"suspended", "finished", "running"} {
		t.Run(state, func(t *testing.T) {
			lateGates.sent, lateGates.finish = make(chan struct{}), make(chan struct{})
			sent := lateGates.sent
			spec := AppSpec{
				ID: wire.AppID(52 + i), Name: "test-late", Ranks: 2,
				Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyRestart,
			}
			if state == "finished" {
				spec.Args = []byte{1}
			}
			h := newHarness(t, spec)
			gate := &lateGate{Transport: h.tr, release: make(chan struct{})}
			h.tr = gate
			h.launch(nil)
			defer func() {
				select {
				case <-gate.release:
				default:
					close(gate.release)
				}
			}()
			select {
			case <-sent:
			case <-time.After(20 * time.Second):
				t.Fatal("rank 0 never sent")
			}
			h.mu.Lock()
			p := h.procs[1]
			h.mu.Unlock()
			switch state {
			case "suspended":
				h.sendTo(1, wire.Msg{Type: wire.TConfiguration, Kind: CfgSuspend})
			case "finished":
				select {
				case d := <-h.doneCh:
					if d.rank != 1 || d.err != "" {
						t.Fatalf("rank %d finished (%q), want rank 1 cleanly", d.rank, d.err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("rank 1 never finished")
				}
			}
			h.sendTo(0, wire.Msg{Type: wire.TConfiguration, Kind: CfgCkptNow, App: spec.ID})
			// Rank 1's drain is open once both flushes are in; only the
			// held message is missing.
			for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
				p.cr.mu.Lock()
				flushes := len(p.cr.sfsFlushes)
				p.cr.mu.Unlock()
				if flushes == spec.Ranks {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("rank 1 has %d of %d flushes", flushes, spec.Ranks)
				}
			}
			if _, err := h.store.CommittedLine(spec.ID); err == nil {
				t.Fatal("a line committed before rank 1's drain could complete")
			}
			close(gate.release)
			deadline := time.Now().Add(10 * time.Second)
			for {
				line, err := h.store.CommittedLine(spec.ID)
				if err == nil {
					if line[0] != 1 || line[1] != 1 {
						t.Fatalf("committed line %v, want {1,1}", line)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no line committed after the %s rank's last awaited message arrived", state)
				}
				time.Sleep(2 * time.Millisecond)
			}
			close(lateGates.finish)
			if state != "finished" {
				if state == "suspended" {
					h.sendTo(1, wire.Msg{Type: wire.TConfiguration, Kind: CfgResume})
				}
				h.waitAll()
				return
			}
			select {
			case d := <-h.doneCh:
				if d.rank != 0 || d.err != "" {
					t.Fatalf("rank %d finished (%q), want rank 0 cleanly", d.rank, d.err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("rank 0 never finished")
			}
			h.closeAll()
		})
	}
}

func TestAbortReportsError(t *testing.T) {
	spec := ringSpec(10, 2, 1<<40) // effectively endless
	h := newHarness(t, spec)
	h.launch(nil)
	h.abortAll()
	h.mu.Lock()
	procs := h.procs
	h.mu.Unlock()
	for _, p := range procs {
		if !errors.Is(p.Err(), ErrAborted) {
			t.Errorf("rank %d err = %v, want ErrAborted", p.Rank(), p.Err())
		}
	}
}

// drainAbortApp: rank 0 finishes at its first step, which opens a checkpoint
// round (CkptEverySteps 1) that cannot commit, because rank 1 sits in a
// receive nothing answers until its abort closes the communicator.
type drainAbortApp struct{}

// drainAbortStepped is signalled when rank 0 has taken its last step.
var drainAbortStepped = make(chan struct{}, 1)

func init() {
	Register("test-drain-abort", func([]byte) (App, error) { return drainAbortApp{}, nil })
}

func (drainAbortApp) Init(*Ctx) error            { return nil }
func (drainAbortApp) Restore(*Ctx, []byte) error { return nil }
func (drainAbortApp) Snapshot() ([]byte, error)  { return nil, nil }
func (drainAbortApp) Step(ctx *Ctx) (bool, error) {
	if ctx.Rank == 0 {
		drainAbortStepped <- struct{}{}
		return true, nil
	}
	_, _, err := ctx.Comm.Recv(0, 99)
	return true, err
}

// TestAbortWhileDrainingRoundExits: a coordinator that finished while its
// round is outstanding waits for the round in its finished state (linger);
// an abort that arrives there ends the process, rather than sending it on to serve protocol
// traffic until the 60 s teardown backstop.
func TestAbortWhileDrainingRoundExits(t *testing.T) {
	spec := AppSpec{
		ID: 46, Name: "test-drain-abort", Ranks: 2, Protocol: ckpt.StopAndSync,
		Encoder: ckpt.Portable, Policy: PolicyRestart, CkptEverySteps: 1,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	select {
	case <-drainAbortStepped:
	case <-time.After(20 * time.Second):
		t.Fatal("rank 0 never stepped")
	}
	h.mu.Lock()
	procs := h.procs
	h.mu.Unlock()
	for _, p := range procs {
		p.Close()
	}
	for _, p := range procs {
		select {
		case <-p.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d still running 5 s after its abort", p.Rank())
		}
	}
}

// failOnce is the harness's store, except that it refuses rank's PutRecord of
// checkpoint n, once.
type failOnce struct {
	ckpt.Backend
	rank   wire.Rank
	n      uint64
	failed atomic.Bool
}

func (s *failOnce) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *ckpt.Meta) error {
	if rank == s.rank && n == s.n && s.failed.CompareAndSwap(false, true) {
		return errPlanted
	}
	return s.Backend.PutRecord(app, rank, n, rec, meta)
}

// TestFailedStoreDropsRound: a rank whose store refuses its checkpoint acks
// the failure, the coordinator drops that round without committing, and the
// next round opens the next index — so later lines commit and the job ends
// without the finished coordinator waiting out its 10 s bound for a round
// that can never complete.
func TestFailedStoreDropsRound(t *testing.T) {
	for _, proto := range []ckpt.Protocol{ckpt.StopAndSync, ckpt.ChandyLamport} {
		t.Run(proto.String(), func(t *testing.T) {
			spec := ringSpec(48, 3, 2000)
			spec.Protocol, spec.CkptEverySteps = proto, 100
			h := newHarness(t, spec)
			back := &failOnce{Backend: h.store, rank: 1, n: 2}
			h.back = back
			start := time.Now()
			h.launch(nil)
			h.waitAll()
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("the job took %v", took)
			}
			if !back.failed.Load() {
				t.Fatal("no store was refused")
			}
			line, err := h.store.CommittedLine(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			for r := range spec.Ranks {
				if line[wire.Rank(r)] <= 2 {
					t.Fatalf("committed line %v: nothing committed after the refused checkpoint 2", line)
				}
			}
		})
	}
}

// TestFailedIndependentStoreFailsRank: an independent checkpoint that fails to
// store fails its rank at the next checkpoint, as the synchronous store did,
// rather than leaving a gap that later checkpoints step over: the missing
// checkpoint's meta held its interval's receipts and sends, without which a
// line through a later checkpoint could keep an orphan or miss a replay. The
// restart from the checkpoints stored finishes with the exact result.
func TestFailedIndependentStoreFailsRank(t *testing.T) {
	spec := ringSpec(51, 3, 1000)
	spec.Protocol, spec.CkptEverySteps = ckpt.Independent, 100
	h := newHarness(t, spec)
	back := &failOnce{Backend: h.store, rank: 1, n: 2}
	h.back = back
	h.launch(nil)
	select {
	case d := <-h.doneCh:
		if d.rank != 1 {
			t.Fatalf("rank %d finished (%q) before rank 1 failed", d.rank, d.err)
		}
		if !strings.Contains(d.err, errPlanted.Error()) {
			t.Fatalf("rank 1 finished with %q, want the refused store", d.err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("rank 1 did not fail on its refused checkpoint")
	}
	h.abortAll()
	if ns, _ := h.store.List(spec.ID, 1); len(ns) == 0 || ns[len(ns)-1] != 1 {
		t.Fatalf("rank 1 stored checkpoints %v, want none after checkpoint 1", ns)
	}
	line, err := ckpt.GatherLine(h.store, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.launch(line)
	h.waitAll()
}

// refusingNet is a transport on which, while on is set, every send fails:
// the replicated store dialing out over it reaches no holder.
type refusingNet struct {
	vni.Transport
	on atomic.Bool
}

func (n *refusingNet) Dial(addr string) (vni.Conn, error) {
	c, err := n.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return refusingConn{Conn: c, n: n}, nil
}

type refusingConn struct {
	vni.Conn
	n *refusingNet
}

func (c refusingConn) Send(m *wire.Msg) error {
	if c.n.on.Load() {
		return errors.New("refused")
	}
	return c.Conn.Send(m)
}

// failLog is a store that records, per rank, the highest index whose
// PutRecord failed.
type failLog struct {
	ckpt.Backend
	mu     sync.Mutex
	failed map[wire.Rank]uint64
}

func (s *failLog) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *ckpt.Meta) error {
	err := s.Backend.PutRecord(app, rank, n, rec, meta)
	if err != nil {
		s.mu.Lock()
		s.failed[rank] = max(s.failed[rank], n)
		s.mu.Unlock()
	}
	return err
}

func (s *failLog) highest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, f := range s.failed {
		n = max(n, f)
	}
	return n
}

// TestUnreplicatedCheckpointCommitsNoLine: on the replicated memory store, a
// checkpoint whose push to its holder fails is not stored: its put fails, the
// rank acks the failure and the coordinator drops the round, so no line
// commits on a checkpoint held by its writer's node alone — and that line's
// commit cannot collect the older copies. Once the holder answers again, a
// later round commits, on checkpoints the holder has.
func TestUnreplicatedCheckpointCommitsNoLine(t *testing.T) {
	net, writer, holder := refusedPair(t)
	spec := ringSpec(54, 3, 1<<40) // runs until aborted
	spec.CkptEverySteps = 100
	h := newHarness(t, spec)
	back := &failLog{Backend: writer, failed: map[wire.Rank]uint64{}}
	h.back = back
	h.launch(nil)
	defer h.abortAll()
	// Two rounds failed at rank 0: none of their checkpoints reached the
	// holder, and no line committed.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		back.mu.Lock()
		failed := back.failed[0]
		back.mu.Unlock()
		if failed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 0's puts did not fail while the holder refused them")
		}
	}
	if line, err := writer.CommittedLine(spec.ID); err == nil {
		t.Fatalf("line %v committed on checkpoints its holder refused", line)
	}
	net.on.Store(false)

	var line ckpt.RecoveryLine
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var err error
		if line, err = writer.CommittedLine(spec.ID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no line committed once the holder answered")
		}
	}
	// A rank's puts run one at a time, in index order, so every failed put
	// came before the committed round's.
	refused := back.highest()
	for r := range spec.Ranks {
		n := line[wire.Rank(r)]
		if n <= refused {
			t.Fatalf("line %v commits checkpoint %d; puts failed up to %d", line, n, refused)
		}
		if _, _, err := holder.Get(spec.ID, wire.Rank(r), n); err != nil {
			t.Errorf("the holder lacks rank %d's committed checkpoint %d: %v", r, n, err)
		}
	}
}

// refusedPair is a two-node replicated memory store, writer and holder,
// keeping two copies of each record; the writer's sends are refused while
// net.on is set.
func refusedPair(t *testing.T) (net *refusingNet, writer, holder *rstore.Store) {
	net = &refusingNet{Transport: vni.NewFastnet(0)}
	net.on.Store(true)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("rs-proc-n%d", id) }
	stores := make([]*rstore.Store, 2)
	for i, tr := range []vni.Transport{net, net.Transport} {
		s, err := rstore.New(rstore.Config{
			Node: wire.NodeID(i + 1), Transport: tr, Addr: addr(wire.NodeID(i + 1)), PeerAddr: addr,
			Replicas: 2, RequestTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		stores[i] = s
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	return net, stores[0], stores[1]
}

// TestUnreplicatedIndependentCheckpointReachesDisk: on the tiered store, an
// independent checkpoint whose replica push failed counts as stored, so the
// rank steps on — and the record its fast tier kept alone is spilled to disk,
// where it can be read once the writer's memory is gone.
func TestUnreplicatedIndependentCheckpointReachesDisk(t *testing.T) {
	_, writer, _ := refusedPair(t)
	disk, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := ckpt.NewTiered(writer, disk, t.Logf)
	defer tiered.Close()

	spec := ringSpec(55, 2, 1<<40) // runs until aborted
	spec.Protocol = ckpt.Independent
	spec.CkptEverySteps = 100
	h := newHarness(t, spec)
	back := &failLog{Backend: tiered, failed: map[wire.Rank]uint64{}}
	h.back = back
	h.launch(nil)
	defer h.abortAll()
	var n uint64
	for deadline := time.Now().Add(20 * time.Second); n < 2; time.Sleep(time.Millisecond) {
		back.mu.Lock()
		n = back.failed[0]
		back.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("rank 0's puts did not fail while the holder refused them")
		}
	}
	// The ranks stop first: a rank that checkpoints faster than the disk
	// takes its spills would keep Flush waiting, its queue growing.
	h.abortAll()
	tiered.Flush()
	if _, _, err := disk.Get(spec.ID, 0, n); err != nil {
		t.Fatalf("rank 0's checkpoint %d, stored without its replica, is not on disk: %v", n, err)
	}
}

// holdPut is the harness's store, except that rank's first PutRecord waits
// for release; entered closes when it begins to.
type holdPut struct {
	ckpt.Backend
	rank             wire.Rank
	once             sync.Once
	entered, release chan struct{}
}

func (s *holdPut) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *ckpt.Meta) error {
	if rank == s.rank {
		first := false
		s.once.Do(func() { first = true })
		if first {
			close(s.entered)
			<-s.release
		}
	}
	return s.Backend.PutRecord(app, rank, n, rec, meta)
}

// TestRankStepsOnWhileStoring: after its cut a rank hands the epoch to its
// capture worker and steps on — up to its next cadence point, where it waits
// for the store, so its recovery line never falls more than an interval
// behind. With rank 1's first store held, rank 1 keeps stepping until the
// first cadence point at or after its hand-off and stops there; no line
// commits until the store is released, and then the job finishes.
func TestRankStepsOnWhileStoring(t *testing.T) {
	const every = 100
	spec := ringSpec(50, 2, 5000)
	spec.CkptEverySteps = every
	h := newHarness(t, spec)
	back := &holdPut{Backend: h.store, rank: 1, entered: make(chan struct{}), release: make(chan struct{})}
	h.back = back
	drains := &drainLog{}
	h.events = drains
	h.launch(nil)
	defer func() {
		select {
		case <-back.release:
		default:
			close(back.release)
		}
	}()
	select {
	case <-back.entered:
	case <-time.After(20 * time.Second):
		t.Fatal("rank 1 never stored a checkpoint")
	}
	h.mu.Lock()
	p := h.procs[1]
	h.mu.Unlock()
	p.cmu.Lock()
	comm := p.comm
	p.cmu.Unlock()
	// Rank 1 takes a step per message from rank 0, which runs at most one
	// step ahead of it, so its count is its step or one more. The hand-off
	// came at or before the step it was at when its store began; a stop-and-
	// sync round drains while the ranks step, so that can be any step.
	ceil := func(n uint64) uint64 { return (n + every - 1) / every * every }
	entered := comm.RecvCounts()[0]
	got := entered
	for deadline, still := time.Now().Add(10*time.Second), time.Now(); time.Since(still) < 100*time.Millisecond; time.Sleep(5 * time.Millisecond) {
		if n := comm.RecvCounts()[0]; n != got {
			got, still = n, time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 still stepping (step %d) 10 s into its held store", got)
		}
	}
	t.Logf("rank 1's store began at step %d; it stopped at step %d", entered, got)
	if lo, hi := ceil(entered-1)-1, ceil(entered)+1; got < lo || got > hi {
		t.Fatalf("rank 1 stopped at step %d with its store held from step %d on, want the cadence point after it (%d..%d)", got, entered, lo, hi)
	}
	if _, err := h.store.CommittedLine(spec.ID); err == nil {
		t.Fatal("a line committed while rank 1's checkpoint was unstored")
	}
	close(back.release)
	h.waitAll()
	if _, err := h.store.CommittedLine(spec.ID); err != nil {
		t.Fatalf("no line committed: %v", err)
	}
	t.Logf("snapshot to hand-off of each stored epoch: %s", drains)
}

// drainLog collects the drain_us of every ckpt/epoch record.
type drainLog struct {
	mu sync.Mutex
	us []int
}

func (d *drainLog) Emit(r evstore.Record) {
	if r.Component == "ckpt" && r.Kind == "epoch" {
		v, _ := r.Get("drain_us")
		us, _ := strconv.Atoi(v)
		d.mu.Lock()
		d.us = append(d.us, us)
		d.mu.Unlock()
	}
}

// String lists the drains in µs, ascending.
func (d *drainLog) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	slices.Sort(d.us)
	return fmt.Sprint(d.us, " µs")
}

func TestCoordinationMessages(t *testing.T) {
	spec := AppSpec{
		ID: 11, Name: "test-coord", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyKill,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitAll()
}

// coordApp: rank 0 casts a coordination message; both ranks finish once
// they have seen it (sender included — casts echo).
type coordApp struct {
	seen chan struct{}
	sent bool
}

func init() {
	Register("test-coord", func([]byte) (App, error) {
		return &coordApp{seen: make(chan struct{}, 1)}, nil
	})
}

func (a *coordApp) Init(ctx *Ctx) error {
	ctx.OnCoordination(func(from wire.Rank, payload []byte) {
		if from == 0 && string(payload) == "rebalance" {
			select {
			case a.seen <- struct{}{}:
			default:
			}
		}
	})
	return nil
}
func (a *coordApp) Restore(*Ctx, []byte) error { return nil }
func (a *coordApp) Snapshot() ([]byte, error)  { return nil, nil }
func (a *coordApp) Step(ctx *Ctx) (bool, error) {
	if !a.sent && ctx.Rank == 0 {
		a.sent = true
		if err := ctx.Coordinate([]byte("rebalance")); err != nil {
			return true, err
		}
	}
	select {
	case <-a.seen:
		return true, nil
	default:
		time.Sleep(time.Millisecond)
		return false, nil
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := AppSpec{
		ID: 9, Name: "x", Args: []byte{1, 2}, Ranks: 4,
		Protocol: ckpt.ChandyLamport, Encoder: ckpt.Native,
		CkptEverySteps: 100, Policy: PolicyNotify, Owner: "alice",
	}
	got, err := DecodeSpec(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Name != "x" || got.Ranks != 4 || got.Protocol != ckpt.ChandyLamport ||
		got.Encoder != ckpt.Native || got.CkptEverySteps != 100 || got.Policy != PolicyNotify ||
		got.Owner != "alice" {
		t.Errorf("round trip = %+v", got)
	}
	bad := s
	bad.Ranks = 0
	if _, err := DecodeSpec(bad.Encode()); err == nil {
		t.Error("zero-rank spec accepted")
	}
}

// TestDecodeSpecRejectsHugeRanks: a decoded rank count is input, and every
// daemon sizes per-rank tables from it, so one past MaxRanks is refused — a
// spec carried in a replicated command or read back from a peer included —
// and MaxRanks itself decodes. A spec written before the delta-capture flag
// went, with its trailing byte, still decodes.
func TestDecodeSpecRejectsHugeRanks(t *testing.T) {
	s := AppSpec{ID: 3, Name: "x", Ranks: 2000000000, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyKill}
	for _, ranks := range []int{2000000000, MaxRanks + 1} {
		s.Ranks = ranks
		if _, err := DecodeSpec(s.Encode()); err == nil {
			t.Errorf("a spec of %d ranks decodes", ranks)
		}
	}
	s.Ranks = MaxRanks
	if got, err := DecodeSpec(s.Encode()); err != nil || got.Ranks != MaxRanks {
		t.Errorf("a spec of MaxRanks ranks decodes as %d ranks, err %v", got.Ranks, err)
	}
	if got, err := DecodeSpec(append(s.Encode(), 1)); err != nil || got.Ranks != MaxRanks {
		t.Errorf("a spec with the old flag byte decodes as %d ranks, err %v", got.Ranks, err)
	}
}

func TestStartInfoRoundTrip(t *testing.T) {
	si := StartInfo{
		Gen: 2, Size: 3,
		Addrs:   map[wire.Rank]string{0: "a", 1: "b", 2: "c"},
		Restore: true, RestoreIndex: 4, NextCkptIndex: 5,
		Line: map[wire.Rank]uint64{0: 4, 1: 3, 2: 4},
	}
	got, err := DecodeStartInfo(si.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 2 || got.Size != 3 || got.Addrs[1] != "b" || !got.Restore ||
		got.RestoreIndex != 4 || got.NextCkptIndex != 5 || got.Line[1] != 3 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestLWViewInfoRoundTrip(t *testing.T) {
	v := LWViewInfo{Alive: []wire.Rank{0, 2}, Departed: []wire.Rank{1}}
	got, err := DecodeLWViewInfo(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Alive) != 2 || got.Alive[1] != 2 || len(got.Departed) != 1 || got.Departed[0] != 1 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestCkptStateRoundTrip(t *testing.T) {
	pending := []mpi.RecordedMsg{
		{Src: 1, Dst: 0, Tag: 3, Data: []byte("p"), Interval: 2, Seq: 9},
	}
	recorded := []mpi.RecordedMsg{
		{Src: 2, Dst: 0, Tag: 4, Data: []byte("r"), Interval: 1, Seq: 10},
		{Src: 2, Dst: 0, Tag: 4, Data: nil, Interval: 1, Seq: 11},
	}
	// The size is computed up front so a checkpoint image can be sized
	// exactly: the encoding must fill it and not a byte more.
	b := encodeCkptState([]byte("app-state"), pending, recorded)
	if want := ckptStateSize([]byte("app-state"), pending, recorded); len(b) != want || cap(b) != want {
		t.Fatalf("state encoded to %d bytes (capacity %d), sized %d", len(b), cap(b), want)
	}
	state, gp, gr, err := decodeCkptState(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "app-state" {
		t.Errorf("state = %q", state)
	}
	if len(gp) != 1 || gp[0].Seq != 9 || string(gp[0].Data) != "p" {
		t.Errorf("pending = %+v", gp)
	}
	if len(gr) != 2 || gr[1].Seq != 11 || gr[0].Interval != 1 {
		t.Errorf("recorded = %+v", gr)
	}
	if _, _, _, err := decodeCkptState([]byte{1, 2}); err == nil {
		t.Error("short state decoded")
	}
}

func TestMsgListRoundTrip(t *testing.T) {
	msgs := []mpi.RecordedMsg{
		{Src: 0, Dst: 1, Tag: 5, Data: []byte("log"), Interval: 3, Seq: 17},
	}
	got, err := decodeMsgList(encodeMsgList(msgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dst != 1 || got[0].Seq != 17 || string(got[0].Data) != "log" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestVMAppArgsRoundTrip(t *testing.T) {
	a := &VMApp{StepSlice: 7, NGlobals: 3, HeapWords: 100, Source: "halt", Globals: []int64{1, -2}}
	got, err := DecodeVMApp(EncodeVMApp(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.StepSlice != 7 || got.NGlobals != 3 || got.HeapWords != 100 ||
		got.Source != "halt" || len(got.Globals) != 2 || got.Globals[1] != -2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeVMApp([]byte{1}); err == nil {
		t.Error("short args decoded")
	}
}

func TestAppRegistry(t *testing.T) {
	if _, err := NewApp("no-such-app", nil); err == nil {
		t.Error("unknown app instantiated")
	}
	names := RegisteredApps()
	found := false
	for _, n := range names {
		if n == VMAppName {
			found = true
		}
	}
	if !found {
		t.Errorf("registry %v missing %q", names, VMAppName)
	}
}

// deafApp blocks in a receive nobody will ever satisfy.
type deafApp struct{}

func init() { Register("test-deaf", func([]byte) (App, error) { return deafApp{}, nil }) }

func (deafApp) Init(*Ctx) error            { return nil }
func (deafApp) Restore(*Ctx, []byte) error { return nil }
func (deafApp) Snapshot() ([]byte, error)  { return nil, nil }
func (deafApp) Step(ctx *Ctx) (bool, error) {
	_, _, err := ctx.Comm.Recv(1, 1)
	return false, err
}

// soloDeaf starts a deaf rank 0 of a two-rank job whose rank 1 never
// exists, so the rank blocks in its first receive. Its sends go to toDaemon.
func soloDeaf(t *testing.T, id wire.AppID, toDaemon func(wire.Msg)) *Process {
	t.Helper()
	spec := AppSpec{ID: id, Name: "test-deaf", Ranks: 2, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyRestart}
	p, err := New(Config{Spec: spec, Arch: svm.Machines[0], ToDaemon: toDaemon, Transport: vni.NewFastnet(0), ListenAddr: fmt.Sprintf("deaf-a%d-r0", id)})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	si := StartInfo{Gen: 1, Size: 2, Addrs: map[wire.Rank]string{0: p.Addr(), 1: "deaf-r1"}, NextCkptIndex: 1}
	p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: CfgStart, App: id, Payload: si.Encode()})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		p.cmu.Lock()
		started := p.comm != nil
		p.cmu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the rank never started")
		}
	}
	time.Sleep(20 * time.Millisecond) // let it block in Recv
	return p
}

// waitAborted fails the test unless p ends within 10 s with ErrAborted.
func waitAborted(t *testing.T, p *Process) {
	t.Helper()
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("process still running 10 s after Close")
	}
	if !errors.Is(p.Err(), ErrAborted) {
		t.Errorf("terminal error = %v, want ErrAborted", p.Err())
	}
}

// TestCloseInterruptsBlockedReceive: a daemon tearing a process down with
// Close unblocks an application stuck inside a receive, or the process —
// its state, its NIC — never goes away. After Close the process reaches no
// daemon: a coordination message it sends returns an error and is dropped.
func TestCloseInterruptsBlockedReceive(t *testing.T) {
	var coord atomic.Int32
	p := soloDeaf(t, 47, func(m wire.Msg) {
		if m.Type == wire.TCoordination {
			coord.Add(1)
		}
	})
	p.Close()
	waitAborted(t, p)
	if err := p.ctx.Coordinate([]byte("late")); err == nil {
		t.Error("Coordinate after Close returned no error")
	}
	if n := coord.Load(); n != 0 {
		t.Errorf("%d coordination messages reached the daemon after Close", n)
	}
}

// coordOrderApp finishes once it has had want coordination upcalls, and
// fails if one carries another message than the next one sent.
type coordOrderApp struct {
	want, got uint32
	err       error
}

func init() {
	Register("test-coord-order", func(args []byte) (App, error) {
		r := wire.NewReader(args)
		return &coordOrderApp{want: r.U32()}, r.Err()
	})
}

func (a *coordOrderApp) Init(ctx *Ctx) error {
	ctx.OnCoordination(func(_ wire.Rank, payload []byte) {
		if n := wire.NewReader(payload).U32(); n != a.got && a.err == nil {
			a.err = fmt.Errorf("upcall %d carried message %d", a.got, n)
		}
		a.got++
	})
	return nil
}
func (a *coordOrderApp) Restore(*Ctx, []byte) error { return nil }
func (a *coordOrderApp) Snapshot() ([]byte, error)  { return nil, nil }
func (a *coordOrderApp) Step(*Ctx) (bool, error)    { return a.got >= a.want, a.err }

// TestDeliverNeverBlocks: the daemon's event loop delivers to every local
// process, so one process that does not reach a step boundary must not stall
// it. A burst of coordination messages to a rank blocked in a receive, or to
// one not yet started, is taken at once; the rank still ends on Close, and
// one started after the burst has its upcalls in the order sent.
func TestDeliverNeverBlocks(t *testing.T) {
	const burst = 10000
	deliver := func(t *testing.T, p *Process) {
		t.Helper()
		sent := make(chan int, 1)
		go func() {
			for i := range burst {
				p.Deliver(wire.Msg{Type: wire.TCoordination, App: p.spec.ID, Src: 1, Payload: wire.NewWriter(4).U32(uint32(i)).Bytes()})
			}
			sent <- burst
		}()
		select {
		case <-sent:
		case <-time.After(10 * time.Second):
			t.Fatalf("Deliver blocked before %d messages were taken", burst)
		}
	}

	t.Run("blocked", func(t *testing.T) {
		p := soloDeaf(t, 48, func(wire.Msg) {})
		deliver(t, p)
		p.Close()
		waitAborted(t, p)
	})

	t.Run("unstarted", func(t *testing.T) {
		spec := AppSpec{ID: 49, Name: "test-coord-order", Args: wire.NewWriter(4).U32(burst).Bytes(), Ranks: 1,
			Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyRestart}
		done := make(chan string, 1)
		p, err := New(Config{Spec: spec, Arch: svm.Machines[0], Transport: vni.NewFastnet(0), ListenAddr: "coord-order-r0",
			ToDaemon: func(m wire.Msg) {
				if m.Type == wire.TConfiguration && m.Kind == CfgDone {
					done <- string(m.Payload)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			p.Close()
			<-p.Done()
		}()
		p.Start()
		deliver(t, p)
		si := StartInfo{Gen: 1, Size: 1, Addrs: map[wire.Rank]string{0: p.Addr()}, NextCkptIndex: 1}
		p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: CfgStart, App: spec.ID, Payload: si.Encode()})
		select {
		case e := <-done:
			if e != "" {
				t.Fatalf("rank failed: %s", e)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the rank never had its upcalls")
		}
	})
}
