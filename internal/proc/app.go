// Package proc implements the Starfish application process: the runtime
// that hosts user MPI code together with the MPI module, checkpoint/restart
// module and VNI of Figure 1, wired through the object bus and driven by a
// step scheduler. Figure 1's group handler is two calls, not a goroutine:
// the daemon, in the same Go process, calls Deliver and Close, and the
// process calls it back.
//
// An application process is goroutine-hosted (Go cannot checkpoint live OS
// processes), so checkpointable state is explicit: applications implement
// the App interface with a Snapshot/Restore pair, or run bytecode on the
// Starfish VM whose whole image is checkpointable — mirroring the paper's
// native-vs-VM-level split. Execution is step-structured: the runtime
// interleaves application steps with control work, and checkpoints are
// taken at step boundaries (the application-level safe points standard in
// rollback-recovery systems).
package proc

import (
	"fmt"
	"sort"
	"sync"

	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// App is the interface user applications implement. Step is called
// repeatedly until it reports done; checkpoints are taken between Step
// calls, so Snapshot must return the complete state needed by Restore to
// continue from that boundary.
//
// Apps should be written in a bulk-synchronous style: every receive a step
// performs must be satisfied by messages peers send during the same step.
// This guarantees the stop-and-sync protocol can always bring the
// application to a global safe point.
type App interface {
	// Init starts a fresh run.
	Init(ctx *Ctx) error
	// Restore resumes from a Snapshot taken at a step boundary. state is
	// borrowed from the checkpoint store and read-only for the duration of
	// the call: copy what you keep.
	Restore(ctx *Ctx, state []byte) error
	// Step performs one unit of work and reports whether the application
	// is finished.
	Step(ctx *Ctx) (done bool, err error)
	// Snapshot returns the application state at the current boundary. The
	// runtime only reads the bytes: it copies them into the checkpoint
	// image when the round finalizes (steps later, if channel state is
	// still arriving) or, in memory it lent (VMApp.LendSnapshot), keeps
	// them as part of the image. Until it calls Snapshot again the
	// application must leave them as returned.
	Snapshot() ([]byte, error)
}

// Factory builds an App from its submission arguments.
type Factory func(args []byte) (App, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes an application type available for submission under name.
// All nodes of a cluster run the same binary, so registration by name is
// how daemons spawn arbitrary user applications. Register panics on
// duplicate names.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("proc: app %q registered twice", name))
	}
	registry[name] = f
}

// NewApp instantiates a registered application.
func NewApp(name string, args []byte) (App, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("proc: unknown app %q", name)
	}
	return f(args)
}

// RegisteredApps returns the registered app names, sorted.
func RegisteredApps() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ctx is the application's view of its process runtime: the MPI module
// plus the Starfish-specific upcalls and downcalls of §1. Standard MPI
// programs simply use Comm and ignore the rest.
type Ctx struct {
	// Comm is the MPI module (fast data path).
	Comm *mpi.Comm
	// Rank and Size identify this process within the application.
	Rank wire.Rank
	Size int
	// Gen counts incarnations: 0 for the initial launch, +1 per restart.
	Gen uint32
	// Arch is the simulated architecture of the hosting node.
	Arch svm.Arch

	p *Process
}

// RequestCheckpoint is the user-initiated checkpoint downcall: it asks the
// runtime to start a checkpoint round of the application's configured
// protocol at the next safe point.
func (c *Ctx) RequestCheckpoint() {
	if c.p != nil {
		c.p.requestCheckpoint()
	}
}

// OnView registers the view-change upcall: fn is invoked at a step
// boundary after a lightweight view change, with the surviving ranks and
// the ranks that departed since the last view. Applications that do not
// register a handler keep the conventional MPI programming model.
func (c *Ctx) OnView(fn func(alive, departed []wire.Rank)) {
	if c.p != nil {
		c.p.viewHandler = fn
	}
}

// OnCoordination registers a handler for application-level coordination
// messages (sent with Coordinate), delivered at step boundaries.
func (c *Ctx) OnCoordination(fn func(from wire.Rank, payload []byte)) {
	if c.p != nil {
		c.p.coordHandler = fn
	}
}

// Coordinate multicasts an application-level coordination message to all
// of the application's processes through the daemons and the lightweight
// group (reliable, totally ordered — the slow path).
func (c *Ctx) Coordinate(payload []byte) error {
	if c.p == nil {
		return fmt.Errorf("proc: no runtime")
	}
	return c.p.send(wire.Msg{
		Type: wire.TCoordination, App: c.p.spec.ID, Src: c.Rank, Payload: payload,
	})
}

// Logf logs through the process runtime (no-op unless the host installed a
// logger).
func (c *Ctx) Logf(format string, args ...any) {
	if c.p != nil && c.p.logf != nil {
		c.p.logf("[app %d rank %d] "+format, append([]any{c.p.spec.ID, c.Rank}, args...)...)
	}
}

// ---- the built-in SVM application ----

// VMApp runs a Starfish VM program as a Starfish application. Its
// checkpointable state is the complete VM image, which makes it fully
// transparent and heterogeneous: the image converts between architectures
// on restore.
type VMApp struct {
	StepSlice int // VM instructions per Step
	Source    string
	NGlobals  int
	Globals   []int64 // initial values for the first NGlobals globals
	HeapWords int     // pre-allocated heap (checkpoint-size experiments)

	vm         *svm.VM
	lent, prev []byte     // the runtime's loan for the next Snapshot
	stale      []svm.Span // (LendSnapshot)
}

// VMAppName is the registry name of the built-in VM application.
const VMAppName = "svm"

func init() {
	Register(VMAppName, func(args []byte) (App, error) { return DecodeVMApp(args) })
}

// EncodeVMApp serializes a VMApp description for submission.
func EncodeVMApp(a *VMApp) []byte {
	w := wire.NewWriter(64 + len(a.Source))
	w.U32(uint32(a.StepSlice)).U32(uint32(a.NGlobals)).U32(uint32(a.HeapWords))
	w.String(a.Source)
	w.U32(uint32(len(a.Globals)))
	for _, g := range a.Globals {
		w.I64(g)
	}
	return w.Bytes()
}

// DecodeVMApp parses a description produced by EncodeVMApp.
func DecodeVMApp(args []byte) (*VMApp, error) {
	r := wire.NewReader(args)
	a := &VMApp{
		StepSlice: int(r.U32()),
		NGlobals:  int(r.U32()),
		HeapWords: int(r.U32()),
		Source:    r.String(),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		a.Globals = append(a.Globals, r.I64())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if a.StepSlice <= 0 {
		a.StepSlice = 1000
	}
	return a, nil
}

// Init implements App: assemble and boot the VM on the node architecture.
func (a *VMApp) Init(ctx *Ctx) error {
	prog, err := svm.Assemble(a.Source)
	if err != nil {
		return err
	}
	ng := a.NGlobals
	if ng < len(a.Globals) {
		ng = len(a.Globals)
	}
	a.vm = svm.New(ctx.Arch, prog, ng)
	copy(a.vm.Globals, a.Globals)
	if a.HeapWords > 0 {
		a.vm.Grow(a.HeapWords)
	}
	a.vm.TrackDirty()
	return nil
}

// Restore implements App: decode the image, converting representations if
// the previous incarnation ran on a different architecture.
func (a *VMApp) Restore(ctx *Ctx, state []byte) error {
	vm, err := svm.DecodeImage(state, ctx.Arch)
	if err != nil {
		return err
	}
	a.vm = vm
	a.vm.TrackDirty()
	return nil
}

// Step implements App: run one slice of instructions.
func (a *VMApp) Step(*Ctx) (bool, error) {
	return a.vm.RunSteps(a.StepSlice)
}

// LendSnapshot is the optional App method behind in-place capture, found by
// type assertion like DirtySpans. It lends dst for the next Snapshot call
// only: memory the runtime owns, holding the snapshot before the last, with
// prev the last one (read-only, of dst's length) and stale the DirtySpans
// reported for it — where the two differ. Snapshot may return dst, brought up
// to date, instead of a fresh image; anything else declines and dst is dropped.
func (a *VMApp) LendSnapshot(dst, prev []byte, stale []svm.Span) {
	a.lent, a.prev, a.stale = dst, prev, stale
}

// Snapshot implements App: the native-representation VM image. Each
// snapshot re-baselines the VM's write tracking, so DirtySpans always
// describes changes relative to the previous snapshot. A lent image costs
// what changed: the last snapshot's spans are copied over from it and the
// VM re-encodes the ones it wrote since.
func (a *VMApp) Snapshot() ([]byte, error) {
	img, prev, stale := a.lent, a.prev, a.stale
	a.lent, a.prev, a.stale = nil, nil, nil
	for _, sp := range stale {
		copy(img[sp.Off:sp.Off+sp.Len], prev[sp.Off:])
	}
	if img == nil || !a.vm.EncodeDirty(img) {
		img = a.vm.EncodeImage()
	}
	a.vm.ResetDirty()
	return img, nil
}

// DirtySpans returns the byte ranges of the next snapshot that may differ
// from the previous one (dirty hints for the incremental differ), nil when
// unknown.
func (a *VMApp) DirtySpans() []svm.Span { return a.vm.DirtyByteSpans() }

// VM exposes the underlying machine (inspection in tests and examples).
func (a *VMApp) VM() *svm.VM { return a.vm }
