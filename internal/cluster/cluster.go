// Package cluster provides the simulated cluster of workstations the
// reproduction runs on: N nodes, each with a Starfish daemon, a simulated
// architecture, and a shared in-process network. It is the substitute for
// the paper's physical testbed and supplies the failure-injection surface
// (node crashes, graceful leaves, node additions) that the fault-tolerance
// experiments exercise.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"starfish/internal/chaosnet"
	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Options tunes a simulated cluster.
type Options struct {
	// Nodes is the initial node count (ids 1..Nodes).
	Nodes int
	// StoreDir is the shared checkpoint-store directory.
	StoreDir string
	// Archs assigns simulated architectures round-robin; nil uses
	// svm.Machines (a heterogeneous cluster).
	Archs []svm.Arch
	// HeartbeatEvery/FailAfter tune the failure detector (defaults:
	// 5ms / 150ms; see daemon.Config). The default budget is deliberately
	// generous: simulated nodes share the host's cores, and a
	// compute-bound application must not starve probes into false
	// suspicions. Only a death several members fail to reach first-hand
	// is confirmed in a quarter of the budget; a lone opinion waits it out
	// (and the gcs quorum rule contains the damage if it is still wrong).
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// Replicas is the in-memory replication factor of each node's
	// replicated checkpoint store (default 2: survive one node loss).
	Replicas int
	// ChaosSeed, when non-zero, interposes a chaosnet fault-injection
	// layer (seeded with this value) between every node and the shared
	// fastnet. Faults are programmed through Chaos(); with no faults set
	// the layer is transparent.
	ChaosSeed int64
	// Interpose, when set, wraps the transport each node's components dial
	// and listen through (after chaosnet's, if any): a hook for faults
	// chaosnet does not model, such as holding one message.
	Interpose func(node wire.NodeID, tr vni.Transport) vni.Transport
	// Logf receives daemon diagnostics.
	Logf func(string, ...any)
}

// Cluster is a simulated Starfish cluster.
type Cluster struct {
	opts  Options
	fn    *vni.Fastnet
	chaos *chaosnet.Net // nil unless Options.ChaosSeed is set
	store *ckpt.Store
	// chaosEv mirrors chaosnet fault records into every node's event
	// store; clusterEv does the same for harness actions (kill, leave,
	// add-node), so any surviving node's store tells the whole story.
	chaosEv   evstore.Fanout
	clusterEv evstore.Fanout

	mu      sync.Mutex
	daemons map[wire.NodeID]*daemon.Daemon
	mems    map[wire.NodeID]*rstore.Store
	evs     map[wire.NodeID]*evstore.Store
	// chaosEms/clusterEms remember each node's fanout membership so
	// Crash/Leave can unregister it.
	chaosEms   map[wire.NodeID]*evstore.Emitter
	clusterEms map[wire.NodeID]*evstore.Emitter
	// change is the cluster-level state generation: closed and replaced
	// whenever any node's event store receives records, so cluster waiters
	// can block on it instead of polling (see waitChange).
	change chan struct{}
	nextID wire.NodeID
}

// ErrNodeUnknown is returned for operations on nodes not in the cluster.
var ErrNodeUnknown = errors.New("cluster: unknown node")

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 5 * time.Millisecond
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 30 * opts.HeartbeatEvery
	}
	if opts.Archs == nil {
		opts.Archs = svm.Machines
	}
	store, err := ckpt.NewStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:       opts,
		fn:         vni.NewFastnet(0),
		store:      store,
		daemons:    make(map[wire.NodeID]*daemon.Daemon),
		mems:       make(map[wire.NodeID]*rstore.Store),
		evs:        make(map[wire.NodeID]*evstore.Store),
		chaosEms:   make(map[wire.NodeID]*evstore.Emitter),
		clusterEms: make(map[wire.NodeID]*evstore.Emitter),
		change:     make(chan struct{}),
	}
	if opts.ChaosSeed != 0 {
		c.chaos = chaosnet.New(c.fn, opts.ChaosSeed, chaosnet.Config{
			NodeOf:  chaosNodeOf,
			ClassOf: chaosClassOf,
		})
		c.chaos.Controller().SetEvents(&c.chaosEv)
	}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// gcsAddr names a node's group-communication address on the fastnet.
func gcsAddr(id wire.NodeID) string { return fmt.Sprintf("gcs-node%d", id) }

// rstoreAddr names a node's replicated-checkpoint-store address.
func rstoreAddr(id wire.NodeID) string { return fmt.Sprintf("rstore-n%d", id) }

// chaosNode names a node for chaosnet fault targeting ("n3").
func chaosNode(id wire.NodeID) string { return fmt.Sprintf("n%d", id) }

// chaosNodeOf maps a cluster address to its node label: "gcs-node3",
// "rstore-n3", "data-n3-a1-g2-r0" and "lwg-a1-g2-n3" all belong to node
// "n3". Chaosnet uses this so a partition of a node severs all four
// traffic classes at once.
func chaosNodeOf(addr string) string {
	switch {
	case strings.HasPrefix(addr, "gcs-node"):
		return "n" + addr[len("gcs-node"):]
	case strings.HasPrefix(addr, "rstore-"):
		return addr[len("rstore-"):]
	case strings.HasPrefix(addr, "data-"):
		rest := addr[len("data-"):]
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(addr, "lwg-"):
		if i := strings.LastIndex(addr, "-n"); i >= 0 {
			return addr[i+1:]
		}
	}
	return addr
}

// chaosClassOf maps a cluster address to its traffic class ("gcs",
// "rstore", "data"), so faults can target, say, only the control plane.
func chaosClassOf(addr string) string {
	if i := strings.IndexByte(addr, '-'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// nodeTransport is the transport a node's components dial and listen
// through: the shared fastnet directly, or its chaosnet facade (which tags
// outbound traffic with the node's identity for per-link fault targeting),
// wrapped by Options.Interpose when set.
func (c *Cluster) nodeTransport(id wire.NodeID) vni.Transport {
	var tr vni.Transport = c.fn
	if c.chaos != nil {
		tr = c.chaos.Node(chaosNode(id))
	}
	if c.opts.Interpose != nil {
		tr = c.opts.Interpose(id, tr)
	}
	return tr
}

// AddNode starts a new node (daemon) and joins it to the cluster,
// returning its id. This is the dynamic-growth path of §3.1.2.
func (c *Cluster) AddNode() (wire.NodeID, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	contact := ""
	if len(c.daemons) > 0 {
		// Join through any live daemon (lowest id for determinism).
		ids := c.nodeIDsLocked()
		contact = gcsAddr(ids[0])
	}
	arch := c.opts.Archs[int(id-1)%len(c.opts.Archs)]
	c.mu.Unlock()

	tr := c.nodeTransport(id)
	// Under chaos the default (wide-area-friendly) request timeout would
	// stall a lost replication RPC for seconds; tighten it so dropped
	// requests retry on a simulated-cluster timescale.
	var reqTimeout time.Duration
	var reqRetries int
	if c.chaos != nil {
		reqTimeout = 400 * time.Millisecond
		reqRetries = 4
	}
	ev := evstore.Open(evstore.Config{Node: id, Logf: c.opts.Logf})
	mem, err := rstore.New(rstore.Config{
		Node:           id,
		Transport:      tr,
		Addr:           rstoreAddr(id),
		PeerAddr:       rstoreAddr,
		Replicas:       c.opts.Replicas,
		RequestTimeout: reqTimeout,
		RequestRetries: reqRetries,
		Events:         ev.Emitter("rstore"),
		Logf:           c.opts.Logf,
	})
	if err != nil {
		ev.Close()
		return 0, err
	}
	d, err := daemon.New(daemon.Config{
		Node:           id,
		Transport:      tr,
		GCSAddr:        gcsAddr(id),
		Contact:        contact,
		Store:          c.store,
		Memory:         mem,
		Arch:           arch,
		HeartbeatEvery: c.opts.HeartbeatEvery,
		FailAfter:      c.opts.FailAfter,
		Events:         ev,
		Logf:           c.opts.Logf,
	})
	if err != nil {
		mem.Close()
		ev.Close()
		return 0, err
	}
	chaosEm := ev.Emitter("chaosnet")
	clusterEm := ev.Emitter("cluster")
	c.mu.Lock()
	c.daemons[id] = d
	c.mems[id] = mem
	c.evs[id] = ev
	c.chaosEms[id] = chaosEm
	c.clusterEms[id] = clusterEm
	c.mu.Unlock()
	go c.watchStore(ev)
	c.chaosEv.Add(chaosEm)
	c.clusterEv.Add(clusterEm)
	c.clusterEv.Emit(evstore.Ev("add-node", evstore.F("target", id)))
	return id, nil
}

// watchStore folds one node store's generation channel into the cluster's:
// any record landing anywhere bumps the cluster change generation. The
// goroutine exits when the store closes.
func (c *Cluster) watchStore(ev *evstore.Store) {
	for {
		select {
		case <-ev.Changed():
			c.bump()
		case <-ev.Done():
			return
		}
	}
}

// Changed returns the cluster-level change channel: closed the next time
// any node's event store receives records. Take it before evaluating a
// predicate, then block on it — same contract as daemon.Changed.
func (c *Cluster) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.change
}

func (c *Cluster) bump() {
	c.mu.Lock()
	ch := c.change
	c.change = make(chan struct{})
	c.mu.Unlock()
	close(ch)
}

// dropNodeEvents unregisters a departing node's fanout membership and
// returns its store for closing (nil when unknown). Callers emit their
// farewell record (kill, leave) before calling this so every store — the
// departing node's included — records it.
func (c *Cluster) dropNodeEvents(id wire.NodeID) *evstore.Store {
	c.mu.Lock()
	ev := c.evs[id]
	chaosEm := c.chaosEms[id]
	clusterEm := c.clusterEms[id]
	delete(c.evs, id)
	delete(c.chaosEms, id)
	delete(c.clusterEms, id)
	c.mu.Unlock()
	c.chaosEv.Remove(chaosEm)
	c.clusterEv.Remove(clusterEm)
	return ev
}

func (c *Cluster) nodeIDsLocked() []wire.NodeID {
	ids := make([]wire.NodeID, 0, len(c.daemons))
	for id := range c.daemons {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Nodes returns the live node ids, sorted.
func (c *Cluster) Nodes() []wire.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeIDsLocked()
}

// Daemon returns the daemon of a node.
func (c *Cluster) Daemon(id wire.NodeID) (*daemon.Daemon, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.daemons[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	return d, nil
}

// AnyDaemon returns the lowest-id live daemon (the usual client contact).
func (c *Cluster) AnyDaemon() *daemon.Daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.nodeIDsLocked()
	if len(ids) == 0 {
		return nil
	}
	return c.daemons[ids[0]]
}

// Store returns the shared checkpoint store.
func (c *Cluster) Store() *ckpt.Store { return c.store }

// MemStore returns a node's replicated in-memory checkpoint store.
func (c *Cluster) MemStore(id wire.NodeID) (*rstore.Store, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.mems[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	return s, nil
}

// Events returns a node's structured event store.
func (c *Cluster) Events(id wire.NodeID) (*evstore.Store, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev, ok := c.evs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	return ev, nil
}

// ContactEvents returns the lowest-id live node's event store (the one a
// management client tails through the contact daemon), or nil when the
// cluster is empty.
func (c *Cluster) ContactEvents() *evstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.nodeIDsLocked()
	if len(ids) == 0 {
		return nil
	}
	return c.evs[ids[0]]
}

// Transport returns the cluster's shared network.
func (c *Cluster) Transport() *vni.Fastnet { return c.fn }

// Chaos returns the fault-injection controller, or nil when the cluster was
// built without Options.ChaosSeed. Partitions and link faults programmed
// here apply to all of a node's traffic (gcs, rstore, and data paths).
func (c *Cluster) Chaos() *chaosnet.Controller {
	if c.chaos == nil {
		return nil
	}
	return c.chaos.Controller()
}

// Crash kills a node abruptly: its network presence vanishes and its
// daemon (with all hosted application processes) dies. Nothing is
// announced: the survivors' NICs see their connections to it close, which
// makes their detectors probe it out of turn, and the probes going
// unanswered on every path is what condemns it.
func (c *Cluster) Crash(id wire.NodeID) error {
	c.mu.Lock()
	d, ok := c.daemons[id]
	mem := c.mems[id]
	delete(c.daemons, id)
	delete(c.mems, id)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	c.clusterEv.Emit(evstore.Ev("kill", evstore.F("target", id)))
	ev := c.dropNodeEvents(id)
	// Sever the daemon's group-communication link first so peers see the
	// crash even while the local teardown is in progress. The node's RAM
	// shard dies with it — that is the failure mode the replicated store
	// exists to survive.
	c.fn.Crash(gcsAddr(id))
	c.fn.Crash(rstoreAddr(id))
	if mem != nil {
		mem.Close()
	}
	d.Close()
	if ev != nil {
		ev.Close()
	}
	return nil
}

// Leave removes a node gracefully (administrative removal, §3.1.1).
func (c *Cluster) Leave(id wire.NodeID) error {
	c.mu.Lock()
	d, ok := c.daemons[id]
	mem := c.mems[id]
	delete(c.daemons, id)
	delete(c.mems, id)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	c.clusterEv.Emit(evstore.Ev("leave", evstore.F("target", id)))
	ev := c.dropNodeEvents(id)
	d.Leave()
	if mem != nil {
		mem.Close()
	}
	if ev != nil {
		ev.Close()
	}
	return nil
}

// Shutdown stops every daemon.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	ds := make([]*daemon.Daemon, 0, len(c.daemons))
	for _, d := range c.daemons {
		ds = append(ds, d)
	}
	mems := make([]*rstore.Store, 0, len(c.mems))
	for _, m := range c.mems {
		mems = append(mems, m)
	}
	evs := make([]*evstore.Store, 0, len(c.evs))
	for _, ev := range c.evs {
		evs = append(evs, ev)
	}
	c.daemons = map[wire.NodeID]*daemon.Daemon{}
	c.mems = map[wire.NodeID]*rstore.Store{}
	c.evs = map[wire.NodeID]*evstore.Store{}
	c.chaosEms = map[wire.NodeID]*evstore.Emitter{}
	c.clusterEms = map[wire.NodeID]*evstore.Emitter{}
	c.mu.Unlock()
	for _, d := range ds {
		d.Close()
	}
	for _, m := range mems {
		m.Close()
	}
	for _, ev := range evs {
		ev.Close()
	}
	if c.chaos != nil {
		// Cancel pending timed resets and drop per-conn state.
		c.chaos.Controller().Close()
	}
}

// Submit launches an application through the contact daemon.
func (c *Cluster) Submit(spec proc.AppSpec) error {
	d := c.AnyDaemon()
	if d == nil {
		return errors.New("cluster: no live daemons")
	}
	return d.Submit(spec)
}

// WaitApp blocks until the application reaches a terminal state (Done or
// Failed) or the timeout expires.
func (c *Cluster) WaitApp(app wire.AppID, timeout time.Duration) (daemon.AppInfo, error) {
	deadline := time.Now().Add(timeout)
	for {
		d := c.AnyDaemon()
		if d == nil {
			return daemon.AppInfo{}, errors.New("cluster: no live daemons")
		}
		ch := d.Changed() // before the read: a later change closes this channel
		cch := c.Changed()
		info, ok := d.AppInfo(app)
		if ok && (info.Status == daemon.StatusDone || info.Status == daemon.StatusFailed) {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("cluster: app %d not terminal after %v (status %v)",
				app, timeout, info.Status)
		}
		waitChange(ch, cch)
	}
}

// waitChange parks until the observed daemon signals a state change (ch) or
// any node's event store receives records (cch) — the latter covers edges a
// single daemon's generation channel cannot see: the observed daemon dying,
// state that first becomes visible on a different daemon, or checkpoint
// commits that land in the store rather than in daemon state (the ckpt and
// proc emitters fire on exactly those). The residual timer is a last-resort
// safety net an order of magnitude coarser than the 2ms poll cadence the
// event plane replaced; waits are expected to be woken by the channels.
func waitChange(ch, cch <-chan struct{}) {
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	select {
	case <-ch:
	case <-cch:
	case <-t.C:
	}
}

// WaitStatus blocks until the application reports the wanted status.
func (c *Cluster) WaitStatus(app wire.AppID, want daemon.AppStatus, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		d := c.AnyDaemon()
		if d == nil {
			return errors.New("cluster: no live daemons")
		}
		ch := d.Changed()
		cch := c.Changed()
		if info, ok := d.AppInfo(app); ok && info.Status == want {
			return nil
		}
		if time.Now().After(deadline) {
			info, _ := d.AppInfo(app)
			return fmt.Errorf("cluster: app %d stuck at %v, want %v", app, info.Status, want)
		}
		waitChange(ch, cch)
	}
}

// WaitCommittedLine polls for a committed recovery line through the contact
// daemon, which consults whichever backend the application checkpoints to
// (disk, replicated memory, or tiered).
func (c *Cluster) WaitCommittedLine(app wire.AppID, timeout time.Duration) (ckpt.RecoveryLine, error) {
	deadline := time.Now().Add(timeout)
	for {
		var ch <-chan struct{}
		cch := c.Changed()
		if d := c.AnyDaemon(); d != nil {
			ch = d.Changed()
			if line, err := d.CommittedLine(app); err == nil {
				return line, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: no committed line for app %d after %v", app, timeout)
		}
		waitChange(ch, cch)
	}
}
