// Package daemon implements the Starfish daemon (§2.1): the per-node
// service whose instances form the Starfish group, spawn and track
// application processes, manage the replicated cluster configuration,
// relay coordination and checkpoint/restart messages through lightweight
// groups, and drive the fault-tolerance policies of §3.2.2.
//
// A daemon is composed of the four modules of Figure 1: the group
// communication system (internal/gcs, the Ensemble stand-in), a management
// module (the replicated command state machine — one value, agreed, whose
// effects the daemon loop carries out — plus the management protocol front
// end in internal/mgmt), the lightweight groups — one
// sequencer stream per application over its hosts (internal/lwg), whose
// membership is the app's placement and whose joins are replicated
// commands — and one lightweight endpoint module per local application
// process.
package daemon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/gossip"
	"starfish/internal/lwg"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// AppStatus describes an application's lifecycle state.
type AppStatus uint8

// Application states.
const (
	StatusLaunching AppStatus = iota + 1
	StatusRunning
	StatusSuspended
	StatusDone
	StatusFailed
	StatusRestarting
)

func (s AppStatus) String() string {
	switch s {
	case StatusLaunching:
		return "launching"
	case StatusRunning:
		return "running"
	case StatusSuspended:
		return "suspended"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusRestarting:
		return "restarting"
	default:
		return fmt.Sprintf("daemon.AppStatus(%d)", uint8(s))
	}
}

// Config assembles one daemon.
type Config struct {
	// Node is this daemon's cluster-unique id.
	Node wire.NodeID
	// Transport carries both group communication and application data.
	Transport vni.Transport
	// GCSAddr is the daemon's group-communication listen address.
	GCSAddr string
	// Contact is any existing daemon's GCSAddr; empty creates a new
	// cluster.
	Contact string
	// Store is the on-disk checkpoint store (a shared file system in the
	// simulated cluster). It backs applications that select StoreDisk and
	// is the spill target of the tiered backend.
	Store *ckpt.Store
	// Memory is this node's shard of the replicated in-memory checkpoint
	// store; nil disables the memory and tiered backends (applications
	// selecting them fall back to disk). The daemon feeds main-group view
	// changes into it so replica placement tracks the live membership.
	Memory *rstore.Store
	// Arch is the node's simulated architecture (heterogeneous clusters).
	Arch svm.Arch
	// DataAddr names the data-path listen address for a local process;
	// nil uses a deterministic fastnet-style name.
	DataAddr func(app wire.AppID, gen uint32, rank wire.Rank) string
	// GroupAddr names this node's listen address for one application's
	// per-group sequencer stream; nil uses a deterministic fastnet-style
	// name (TCP deployments return host:0 — peers learn the concrete
	// address from the creator's announce).
	GroupAddr func(app wire.AppID, gen uint32) string
	// HeartbeatEvery/FailAfter tune failure detection (defaults 25ms /
	// 8 intervals): the main group's SWIM detector probes one peer per
	// HeartbeatEvery, each probe stage (direct, then through proxies)
	// waiting one HeartbeatEvery for its answer, and FailAfter/2 is how
	// long a suspicion only one member vouches for may stay unrefuted
	// before it is confirmed. Members that each failed to reach the
	// suspect first-hand confirm sooner, in FailAfter/8 once three agree.
	// FailAfter itself bounds a failover election's wait for answers.
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// Events, when non-nil, is this node's structured event store. The
	// daemon records application lifecycle transitions in it and hands
	// component-tagged emitters to the subsystems it owns (gcs, lwg, gossip,
	// proc; a process tags its checkpoint epochs ckpt). nil disables the
	// event plane.
	Events *evstore.Store
	// Logf receives diagnostics when non-nil.
	Logf func(string, ...any)
}

// endpoint is a lightweight endpoint module: the daemon-side handle of one
// local application process.
type endpoint struct {
	p *proc.Process
}

// inboxMsg is a message from a local process entering the daemon loop.
type inboxMsg struct {
	app  wire.AppID
	rank wire.Rank
	gen  uint32
	m    wire.Msg
}

// Daemon is one Starfish daemon.
type Daemon struct {
	cfg Config
	ep  *gcs.Endpoint
	// router runs the per-application sequencer streams: scoped casts of
	// disjoint apps ride independent per-group coordinators instead of all
	// ordering through the main group (the sharded control plane).
	router *lwg.Router
	// ev is the daemon-tagged event emitter (inert when no store is
	// configured — a nil *Emitter discards).
	ev *evstore.Emitter
	// tiered is the memory-first backend with disk spill, built once when
	// both tiers are configured.
	tiered *ckpt.Tiered

	mu sync.Mutex
	// agreed is the replicated cluster configuration, guarded by mu: the
	// loop applies each command and view to it and then carries out the
	// effects (handleGCS).
	agreed
	// change is the current state generation: closed and replaced by the
	// event loop whenever observable state may have moved, so waiters can
	// block on it instead of polling (see Changed).
	change chan struct{}
	// local endpoints per app, of the current generation. Only the loop
	// writes it, under mu.
	local map[wire.AppID]map[wire.Rank]*endpoint

	// spawned lists the processes this daemon started that may not have
	// exited; Close waits for each, including those a delete, completion or
	// restart detached. Only the loop touches it.
	spawned []*proc.Process

	inbox chan inboxMsg
	stop  chan struct{}
	dead  chan struct{}
}

// New creates a daemon and joins (or creates) the cluster.
func New(cfg Config) (*Daemon, error) {
	if cfg.DataAddr == nil {
		node := cfg.Node
		cfg.DataAddr = func(app wire.AppID, gen uint32, rank wire.Rank) string {
			return fmt.Sprintf("data-n%d-a%d-g%d-r%d", node, app, gen, rank)
		}
	}
	if cfg.GroupAddr == nil {
		node := cfg.Node
		cfg.GroupAddr = func(app wire.AppID, gen uint32) string {
			return fmt.Sprintf("lwg-a%d-g%d-n%d", app, gen, node)
		}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 25 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 8 * cfg.HeartbeatEvery
	}
	ep, err := gcs.Join(gcs.Config{
		Node:           cfg.Node,
		Transport:      cfg.Transport,
		Addr:           cfg.GCSAddr,
		Contact:        cfg.Contact,
		HeartbeatEvery: cfg.HeartbeatEvery,
		FailAfter:      cfg.FailAfter,
		Detector: gossip.New(gossip.Config{
			Self: cfg.Node,
			Seed: uint64(cfg.Node)*0x9e3779b97f4a7c15 + 1,
			Params: gossip.Params{
				ProbeEvery:     cfg.HeartbeatEvery,
				SuspectAfter:   cfg.FailAfter / 2,
				IndirectFanout: 3,
			},
			Events: cfg.Events.Emitter("gossip"),
		}),
		Events: cfg.Events.Emitter("gcs"),
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:    cfg,
		ep:     ep,
		ev:     cfg.Events.Emitter("daemon"),
		agreed: newAgreed(cfg.Node),
		local:  make(map[wire.AppID]map[wire.Rank]*endpoint),
		inbox:  make(chan inboxMsg, 1024),
		change: make(chan struct{}),
		stop:   make(chan struct{}),
		dead:   make(chan struct{}),
	}
	if cfg.Memory != nil && cfg.Store != nil {
		d.tiered = ckpt.NewTiered(cfg.Memory, cfg.Store, cfg.Logf)
	}
	d.router = lwg.NewRouter(lwg.RouterConfig{
		Self:           cfg.Node,
		Transport:      cfg.Transport,
		GroupAddr:      cfg.GroupAddr,
		HeartbeatEvery: cfg.HeartbeatEvery,
		FailAfter:      cfg.FailAfter,
		Events:         cfg.Events.Emitter("lwg"),
		Logf:           cfg.Logf,
	})
	go d.run()
	return d, nil
}

// tierFor resolves the storage tier an application's spec selects, falling
// back to disk when the requested tier is not configured on this node.
func (d *Daemon) tierFor(kind ckpt.StoreKind) ckpt.Backend {
	switch kind {
	case ckpt.StoreMemory:
		if d.cfg.Memory != nil {
			return d.cfg.Memory
		}
	case ckpt.StoreTiered:
		if d.tiered != nil {
			return d.tiered
		}
	}
	return d.cfg.Store
}

// EventStore exposes this node's structured event store (nil when the
// event plane is disabled). The management module serves EVENTS/TAIL
// queries from it.
func (d *Daemon) EventStore() *evstore.Store { return d.cfg.Events }

// ResolveApp maps a registered application name to an id, so operators can
// query events by name (`app=ring`). When several applications share the
// name, the most recently submitted (highest id) wins.
func (d *Daemon) ResolveApp(name string) (wire.AppID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best wire.AppID
	found := false
	for id, st := range d.apps {
		if st.spec.Name == name && (!found || id > best) {
			best, found = id, true
		}
	}
	return best, found
}

// CommittedLine reads the last committed recovery line of an application
// from whichever backend the application checkpoints to.
func (d *Daemon) CommittedLine(app wire.AppID) (ckpt.RecoveryLine, error) {
	d.mu.Lock()
	st, ok := d.apps[app]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("daemon: unknown app %d", app)
	}
	return d.tierFor(st.spec.Store).CommittedLine(app)
}

// StoreStats reports this node's replicated-memory store counters; ok is
// false when no memory store is configured.
func (d *Daemon) StoreStats() (rstore.Stats, bool) {
	if d.cfg.Memory == nil {
		return rstore.Stats{}, false
	}
	return d.cfg.Memory.Stats(), true
}

// Node returns this daemon's id.
func (d *Daemon) Node() wire.NodeID { return d.cfg.Node }

// GCSAddr returns the daemon's group-communication address (the contact
// address new nodes join through).
func (d *Daemon) GCSAddr() string { return d.ep.Addr() }

// Close shuts the daemon down without leaving the group gracefully — the
// failure detector will notice (this is how tests crash a node). Local
// processes are aborted, and Close returns once every process it ever
// spawned has exited.
func (d *Daemon) Close() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.dead
}

// Leave departs the cluster gracefully and shuts down.
func (d *Daemon) Leave() {
	d.ep.Leave()
	d.Close()
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(fmt.Sprintf("[daemon %d] ", d.cfg.Node)+format, args...)
	}
}

// run is the daemon's event loop: it serializes group events, local
// process traffic and shutdown.
func (d *Daemon) run() {
	defer func() {
		for app := range d.local {
			d.do(closeApp{app})
		}
		d.router.Close()
		d.ep.Close()
		for _, p := range d.spawned {
			<-p.Done()
		}
		if d.tiered != nil {
			d.tiered.Close() // drain pending disk spills
		}
		close(d.dead)
		d.bump() // release any Changed waiters blocked across shutdown
	}()
	for {
		select {
		case <-d.stop:
			return
		case ev, ok := <-d.ep.Events():
			if !ok {
				return
			}
			d.handleGCS(ev)
			d.bump()
		case ge := <-d.router.Events():
			d.handleGroupEvent(ge)
			d.bump()
		case im := <-d.inbox:
			d.handleProcessMsg(im)
			d.bump()
		}
	}
}

// handleGroupEvent dispatches one event from a per-application sequencer
// stream. A scoped cast carries a relayed process message — hand it to the
// local endpoints of the matching generation. Stream view changes need no
// action here: a stream's members are the app's placement hosts, and
// failure policy runs off main-group views.
func (d *Daemon) handleGroupEvent(ge lwg.GroupEvent) {
	if ge.Ev.Kind != gcs.ECast {
		return
	}
	m, err := decodeRelay(ge.Ev.Payload)
	if err != nil {
		d.logf("bad stream relay payload (app %d): %v", ge.App, err)
		return
	}
	d.mu.Lock()
	st := d.apps[ge.App]
	current := st != nil && st.gen == ge.Gen
	d.mu.Unlock()
	if current {
		for _, ep := range d.local[ge.App] {
			ep.p.Deliver(m)
		}
	}
}

// Changed returns the current state-generation channel; it is closed the
// next time the daemon's observable state (view, app table, checkpoint
// lines) may have changed. To wait for a condition, take the channel
// BEFORE evaluating the predicate, then block on it — any state change
// after the read closes the channel taken before it, so no edge is lost.
func (d *Daemon) Changed() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.change
}

// bump wakes every Changed waiter by closing the current generation
// channel and installing a fresh one.
func (d *Daemon) bump() {
	d.mu.Lock()
	ch := d.change
	d.change = make(chan struct{})
	d.mu.Unlock()
	close(ch)
}

// castCmd multicasts a replicated command on the main group.
func (d *Daemon) castCmd(c *Cmd) error { return d.ep.Cast(encodeCmd(c)) }

// leader reports whether this daemon leads the current view.
func (d *Daemon) leader() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.agreed.leader()
}

// ErrNoNodes is returned when an application cannot be placed.
var ErrNoNodes = errors.New("daemon: no eligible nodes")
