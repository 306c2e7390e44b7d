package daemon

import (
	"fmt"
	"sort"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// ---- public API (used by the management module and the cluster harness) ----

// Submit launches an application on the cluster. The spec is replicated to
// every daemon, which derive the same placement and spawn their share of
// the processes.
func (d *Daemon) Submit(spec proc.AppSpec) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return d.castCmd(&Cmd{Kind: CmdSubmit, App: spec.ID, Spec: &spec})
}

// Suspend pauses an application at its next safe points.
func (d *Daemon) Suspend(app wire.AppID) error {
	return d.castCmd(&Cmd{Kind: CmdSuspend, App: app})
}

// Resume continues a suspended application.
func (d *Daemon) Resume(app wire.AppID) error {
	return d.castCmd(&Cmd{Kind: CmdResume, App: app})
}

// Delete terminates an application and removes its replicated state.
func (d *Daemon) Delete(app wire.AppID) error {
	return d.castCmd(&Cmd{Kind: CmdDelete, App: app})
}

// Checkpoint triggers a checkpoint round of the application's protocol
// (system-initiated checkpointing).
func (d *Daemon) Checkpoint(app wire.AppID) error {
	return d.castCmd(&Cmd{Kind: CmdCheckpoint, App: app})
}

// Migrate restarts the application from its most recent recovery line with
// a freshly computed placement — this is how Starfish moves processes to
// better or newly added nodes (§3.2.1).
func (d *Daemon) Migrate(app wire.AppID) error {
	line, err := d.recoveryLine(app)
	if err != nil {
		return err
	}
	return d.castCmd(&Cmd{Kind: CmdRestart, App: app, Line: line, Flag: true})
}

// SetNodeEnabled includes or excludes a node from future placements.
func (d *Daemon) SetNodeEnabled(node wire.NodeID, enabled bool) error {
	return d.castCmd(&Cmd{Kind: CmdSetNodeEnabled, Node: node, Flag: enabled})
}

// SetParam replicates a named cluster parameter.
func (d *Daemon) SetParam(key, value string) error {
	return d.castCmd(&Cmd{Kind: CmdSetParam, Key: key, Value: value})
}

// Param reads a replicated cluster parameter.
func (d *Daemon) Param(key string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.params[key]
}

// AppInfo is a snapshot of an application's replicated state.
type AppInfo struct {
	Spec      proc.AppSpec
	Status    AppStatus
	Gen       uint32
	Placement map[wire.Rank]wire.NodeID
	DoneRanks int
	Failure   string
}

// AppInfo returns the state of one application (ok=false if unknown).
func (d *Daemon) AppInfo(app wire.AppID) (AppInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.apps[app]
	if !ok {
		return AppInfo{}, false
	}
	info := AppInfo{
		Spec: st.spec, Status: st.status, Gen: st.gen,
		Placement: make(map[wire.Rank]wire.NodeID, len(st.placement)),
		DoneRanks: len(st.done), Failure: st.failure,
	}
	for r, n := range st.placement {
		info.Placement[r] = n
	}
	return info, true
}

// Apps lists known application ids, sorted.
func (d *Daemon) Apps() []wire.AppID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]wire.AppID, 0, len(d.apps))
	for id := range d.apps {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// View returns the daemon's current main-group view.
func (d *Daemon) View() gcs.View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view.Clone()
}

// recoveryLine determines the line an application would restart from right
// now: the committed line for coordinated protocols, the computed line for
// the independent protocol, all-zeros (fresh restart) if no checkpoints
// exist.
func (d *Daemon) recoveryLine(app wire.AppID) (ckpt.RecoveryLine, error) {
	d.mu.Lock()
	st, ok := d.apps[app]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("daemon: unknown app %d", app)
	}
	zero := make(ckpt.RecoveryLine, st.spec.Ranks)
	for r := 0; r < st.spec.Ranks; r++ {
		zero[wire.Rank(r)] = 0
	}
	be := d.tierFor(&st.spec)
	if st.spec.Protocol.Coordinated() {
		line, err := be.CommittedLine(app)
		if err != nil {
			return zero, nil
		}
		return line, nil
	}
	line, err := ckpt.GatherLine(be, app)
	if err != nil {
		return zero, nil
	}
	// Ranks with no checkpoints restart from scratch.
	for r := 0; r < st.spec.Ranks; r++ {
		if _, ok := line[wire.Rank(r)]; !ok {
			line[wire.Rank(r)] = 0
		}
	}
	return line, nil
}

// ---- replicated command application (total order ⇒ identical everywhere) ----

func (d *Daemon) applyCmd(c *Cmd) {
	switch c.Kind {
	case CmdSubmit:
		d.applySubmit(c)
	case CmdDelete:
		d.applyDelete(c)
	case CmdSuspend, CmdResume:
		kind := proc.CfgSuspend
		status := StatusSuspended
		if c.Kind == CmdResume {
			kind = proc.CfgResume
			status = StatusRunning
		}
		d.mu.Lock()
		st := d.apps[c.App]
		if st != nil && (st.status == StatusRunning || st.status == StatusSuspended) {
			st.status = status
		}
		eps := d.localEndpointsLocked(c.App)
		d.mu.Unlock()
		if st != nil {
			name := "suspend"
			if c.Kind == CmdResume {
				name = "resume"
			}
			d.ev.Emit(evstore.EvApp(name, c.App))
		}
		for _, ep := range eps {
			ep.p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: kind, App: c.App})
		}
	case CmdCheckpoint:
		d.mu.Lock()
		st := d.apps[c.App]
		var eps []*endpoint
		if st != nil {
			if st.spec.Protocol == ckpt.Independent {
				eps = d.localEndpointsLocked(c.App) // everyone checkpoints
			} else if ep, ok := d.local[c.App][0]; ok {
				eps = []*endpoint{ep} // rank 0 initiates the round
			}
		}
		d.mu.Unlock()
		for _, ep := range eps {
			ep.p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: proc.CfgCkptNow, App: c.App})
		}
	case CmdRankDone:
		d.applyRankDone(c)
	case CmdRestart:
		d.applyRestart(c)
	case CmdSetNodeEnabled:
		d.mu.Lock()
		if c.Flag {
			delete(d.disabled, c.Node)
		} else {
			d.disabled[c.Node] = true
		}
		d.mu.Unlock()
	case CmdSetParam:
		d.mu.Lock()
		d.params[c.Key] = c.Value
		d.mu.Unlock()
	case CmdJoin:
		d.applyJoin(c)
	}
}

func (d *Daemon) applySubmit(c *Cmd) {
	if c.Spec == nil {
		return
	}
	d.mu.Lock()
	if _, dup := d.apps[c.App]; dup {
		d.mu.Unlock()
		d.logf("duplicate submit of app %d ignored", c.App)
		return
	}
	st := &appState{
		spec:   *c.Spec,
		status: StatusLaunching,
		gen:    1,
		done:   make(map[wire.Rank]bool),
		addrs:  make(map[wire.Rank]string),
	}
	st.placement = placeRanks(st.spec.Ranks, d.eligibleNodesLocked())
	d.apps[c.App] = st
	if st.placement == nil {
		st.status = StatusFailed
		st.failure = ErrNoNodes.Error()
		d.mu.Unlock()
		d.ev.Emit(evstore.EvApp("app-failed", c.App, evstore.F("err", ErrNoNodes)))
		return
	}
	d.mu.Unlock()
	d.ev.Emit(evstore.EvApp("submit", c.App,
		evstore.F("name", st.spec.Name),
		evstore.F("ranks", st.spec.Ranks),
		evstore.F("protocol", st.spec.Protocol),
		evstore.F("policy", st.spec.Policy)))
	d.spawnLocal(c.App)
}

func (d *Daemon) applyDelete(c *Cmd) {
	d.mu.Lock()
	var be ckpt.Backend
	st, known := d.apps[c.App]
	if known {
		be = d.tierFor(&st.spec)
	}
	delete(d.apps, c.App)
	eps := d.localEndpointsLocked(c.App)
	delete(d.local, c.App)
	d.mu.Unlock()
	if known {
		d.ev.Emit(evstore.EvApp("delete", c.App))
	}
	d.router.Drop(c.App)
	for _, ep := range eps {
		ep.p.Close()
	}
	if d.leader() {
		if be == nil {
			be = d.cfg.Store
		}
		if be != nil {
			be.DropApp(c.App)
		}
	}
}

func (d *Daemon) applyRankDone(c *Cmd) {
	d.mu.Lock()
	st := d.apps[c.App]
	if st == nil || c.Gen != st.gen || st.status == StatusDone || st.status == StatusFailed {
		d.mu.Unlock()
		return
	}
	if c.Err != "" && c.Err != proc.ErrAborted.Error() {
		st.failure = c.Err
		st.status = StatusFailed
		eps := d.localEndpointsLocked(c.App)
		delete(d.local, c.App)
		d.mu.Unlock()
		d.ev.Emit(evstore.EvRank("app-failed", c.App, c.Rank, evstore.F("err", c.Err)))
		d.router.Drop(c.App)
		// A genuine application error: tear everything down.
		for _, ep := range eps {
			ep.p.Close()
		}
		return
	}
	st.done[c.Rank] = true
	d.mu.Unlock()
	d.checkComplete(c.App)
}

// checkComplete marks an application done once every non-lost rank has
// finished, tearing down local endpoints and the app's stream.
func (d *Daemon) checkComplete(app wire.AppID) {
	d.mu.Lock()
	st := d.apps[app]
	if st == nil || st.status == StatusDone || st.status == StatusFailed {
		d.mu.Unlock()
		return
	}
	for r := 0; r < st.spec.Ranks; r++ {
		if !st.done[wire.Rank(r)] && !st.lost[wire.Rank(r)] {
			d.mu.Unlock()
			return
		}
	}
	st.status = StatusDone
	eps := d.localEndpointsLocked(app)
	delete(d.local, app)
	d.mu.Unlock()
	d.ev.Emit(evstore.EvApp("app-done", app))
	d.router.Drop(app)
	// All ranks finished: tear down local endpoints (processes stop serving
	// protocol traffic once closed).
	for _, ep := range eps {
		ep.p.Close()
	}
}

func (d *Daemon) applyRestart(c *Cmd) {
	d.mu.Lock()
	st := d.apps[c.App]
	if st == nil || st.status == StatusDone || st.status == StatusFailed {
		// Completed apps are not restarted (a migrate command can race
		// with completion).
		d.mu.Unlock()
		return
	}
	st.gen++
	st.status = StatusRestarting
	st.line = c.Line
	st.started = false
	st.done = make(map[wire.Rank]bool)
	st.addrs = make(map[wire.Rank]string)
	prev := st.placement
	if c.Flag {
		st.placement = placeRanks(st.spec.Ranks, d.eligibleNodesLocked())
	} else {
		st.placement = restartPlacement(c.App, st.spec.Ranks, prev, d.eligibleNodesLocked())
	}
	placement := make([]wire.NodeID, len(st.placement))
	var moved []wire.Rank
	for r := range placement {
		placement[r] = st.placement[wire.Rank(r)]
		if placement[r] != prev[wire.Rank(r)] {
			moved = append(moved, wire.Rank(r))
		}
	}
	oldEps := d.localEndpointsLocked(c.App)
	delete(d.local, c.App)
	noNodes := st.placement == nil
	if noNodes {
		st.status = StatusFailed
		st.failure = ErrNoNodes.Error()
	}
	gen := st.gen
	d.mu.Unlock()
	if noNodes {
		d.ev.Emit(evstore.EvApp("app-failed", c.App, evstore.F("err", ErrNoNodes)))
	} else {
		d.ev.Emit(evstore.EvApp("restarting", c.App,
			evstore.F("gen", gen), evstore.F("line", c.Line),
			evstore.F("placement", evstore.List(placement)),
			evstore.F("moved", evstore.List(moved))))
	}

	// Abort the previous incarnation's local processes and drop its
	// sequencer streams; the new generation forms fresh ones in spawnLocal.
	d.router.Drop(c.App)
	for _, ep := range oldEps {
		ep.p.Close()
	}
	if noNodes {
		return
	}
	d.spawnLocal(c.App)
}

// ---- spawning and start coordination ----

// spawnLocal creates this daemon's share of an application's processes for
// the current generation and, once its endpoint on the app's stream has
// joined, announces their addresses with a CmdJoin.
func (d *Daemon) spawnLocal(app wire.AppID) {
	d.mu.Lock()
	st := d.apps[app]
	if st == nil {
		d.mu.Unlock()
		return
	}
	gen := st.gen
	spec := st.spec
	var myRanks []wire.Rank
	hosts := make(map[wire.NodeID]bool)
	for r, node := range st.placement {
		hosts[node] = true
		if node == d.cfg.Node {
			myRanks = append(myRanks, r)
		}
	}
	sort.Slice(myRanks, func(i, j int) bool { return myRanks[i] < myRanks[j] })
	d.mu.Unlock()
	if len(myRanks) == 0 {
		return // not a host of this generation, so not in its group
	}
	groupNodes := make([]wire.NodeID, 0, len(hosts))
	for n := range hosts {
		groupNodes = append(groupNodes, n)
	}
	addrs := make(map[wire.Rank]string, len(myRanks))
	eps := make(map[wire.Rank]*endpoint, len(myRanks))
	for _, rank := range myRanks {
		p, err := proc.New(proc.Config{
			Spec:       spec,
			Rank:       rank,
			Arch:       d.cfg.Arch,
			Store:      d.tierFor(&spec),
			ToDaemon:   d.fromProcess(app, gen, rank),
			Transport:  d.cfg.Transport,
			ListenAddr: d.cfg.DataAddr(app, gen, rank),
			Events:     d.cfg.Events.Emitter("proc"),
			Logf:       d.cfg.Logf,
		})
		if err != nil {
			d.logf("spawn app %d rank %d: %v", app, rank, err)
			continue
		}
		eps[rank] = &endpoint{rank: rank, p: p}
		addrs[rank] = p.Addr()
		p.Start()
	}
	d.mu.Lock()
	d.local[app] = eps
	// Close waits for every process spawned; forget those already gone.
	live := d.spawned[:0]
	for _, p := range d.spawned {
		select {
		case <-p.Done():
		default:
			live = append(live, p)
		}
	}
	d.spawned = live
	for _, ep := range eps {
		d.spawned = append(d.spawned, ep.p)
	}
	d.mu.Unlock()
	// The hosts form the app's stream; the router calls back once this
	// node's endpoint joined it (the creator first, carrying its contact in
	// the announce). The app starts when every host's CmdJoin has applied
	// (maybeStart), so by then every host's stream endpoint is up.
	d.router.Ensure(app, gen, groupNodes, func(gcsAddr string) {
		join := &Cmd{Kind: CmdJoin, App: app, Node: d.cfg.Node, Gen: gen, Addrs: addrs, Contact: gcsAddr}
		if err := d.castCmd(join); err != nil {
			d.logf("join app %d gen %d: %v", app, gen, err)
		}
	})
}

// fromProcess is a local process's line to the daemon loop: the process
// calls it with each message it sends.
func (d *Daemon) fromProcess(app wire.AppID, gen uint32, rank wire.Rank) func(wire.Msg) {
	return func(m wire.Msg) {
		select {
		case d.inbox <- inboxMsg{app: app, rank: rank, gen: gen, m: m}:
		case <-d.stop:
		}
	}
}

// handleProcessMsg routes one message from a local application process.
func (d *Daemon) handleProcessMsg(im inboxMsg) {
	switch im.m.Type {
	case wire.TConfiguration:
		if im.m.Kind == proc.CfgDone {
			d.castCmd(&Cmd{
				Kind: CmdRankDone, App: im.app, Rank: im.rank, Gen: im.gen,
				Err: string(im.m.Payload),
			})
		}
	case wire.TCheckpoint, wire.TCoordination:
		// Relay through the app's own sequencer stream: reliable, ordered,
		// scoped to the daemons hosting this application, and independent
		// of every other app's traffic. The message itself is opaque to us.
		// A process runs only after this node's endpoint joined, so Cast
		// fails only while the generation is being torn down.
		if err := d.router.Cast(im.app, im.gen, encodeRelay(&im.m)); err != nil {
			d.logf("scoped cast app %d gen %d dropped: %v", im.app, im.gen, err)
		}
	}
}

// applyJoin records a host's rank addresses for the app's current
// generation, hands the creator's stream contact to the local router, and
// starts the app once every rank's address is known.
func (d *Daemon) applyJoin(c *Cmd) {
	d.mu.Lock()
	st := d.apps[c.App]
	current := st != nil && st.gen == c.Gen && !st.started
	if current {
		for r, a := range c.Addrs {
			st.addrs[r] = a
		}
	}
	d.mu.Unlock()
	if !current {
		return
	}
	d.router.SetContact(c.App, c.Gen, c.Contact)
	d.maybeStart(c.App)
}

// maybeStart issues CfgStart to local processes once every rank of the
// current generation is accounted for: its data address is known, or it was
// lost (PolicyNotify) — a host lost before its join never sends one.
func (d *Daemon) maybeStart(app wire.AppID) {
	d.mu.Lock()
	st := d.apps[app]
	if st == nil || st.started {
		d.mu.Unlock()
		return
	}
	for r := range wire.Rank(st.spec.Ranks) {
		if _, ok := st.addrs[r]; !ok && !st.lost[r] {
			d.mu.Unlock()
			return // not all ranks announced yet
		}
	}
	st.started = true
	addrs := st.addrs
	if st.status == StatusLaunching || st.status == StatusRestarting {
		st.status = StatusRunning
	}
	line := st.line
	gen := st.gen
	size := st.spec.Ranks
	eps := d.localEndpointsLocked(app)
	d.mu.Unlock()
	d.ev.Emit(evstore.EvApp("running", app, evstore.F("gen", gen)))

	var next uint64 = 1
	for _, idx := range line {
		if idx >= next {
			next = idx + 1
		}
	}
	for _, ep := range eps {
		si := proc.StartInfo{
			Gen: gen, Size: size, Addrs: addrs, NextCkptIndex: next,
		}
		if line != nil {
			si.Restore = true
			si.RestoreIndex = line[ep.rank]
			si.Line = map[wire.Rank]uint64(line)
		}
		ep.p.Deliver(wire.Msg{
			Type: wire.TConfiguration, Kind: proc.CfgStart, App: app,
			Payload: si.Encode(),
		})
	}
}

func (d *Daemon) localEndpointsLocked(app wire.AppID) []*endpoint {
	eps := d.local[app]
	out := make([]*endpoint, 0, len(eps))
	for _, ep := range eps {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// ---- failure handling (§3.2.2) ----

// handleMainView reacts to a Starfish-group view change: mirror its failure
// verdicts to the app streams, then apply the fault-tolerance policy of
// every application that had ranks placed on a departed node.
func (d *Daemon) handleMainView(v gcs.View) {
	// Re-point the replicated memory store at the new membership before any
	// recovery decision reads from it: replica placement and peer fetches
	// must not target departed nodes.
	if d.cfg.Memory != nil {
		d.cfg.Memory.UpdateView(v.Members)
	}
	d.mu.Lock()
	prev := d.view
	d.view = v
	// Placement decides, whether or not the node's CmdJoin sequenced: a
	// host that dies before its join would otherwise leave the app waiting
	// forever for a join that is never coming.
	affected := map[wire.AppID][]wire.NodeID{}
	for app, st := range d.apps {
		if st.status == StatusDone || st.status == StatusFailed {
			continue
		}
		for _, node := range st.placement {
			if v.Contains(node) || containsNode(affected[app], node) {
				continue
			}
			affected[app] = append(affected[app], node)
		}
	}
	d.mu.Unlock()

	// Mirror the main group's failure verdicts to the per-group sequencer
	// streams: their engines run no detection of their own and only remove
	// members the main group removed. Re-admitted nodes (a departed id
	// rejoining) get their verdict retracted.
	for _, n := range prev.Members {
		if !v.Contains(n) {
			d.router.SetDead(n, true)
		}
	}
	for _, n := range v.Members {
		d.router.SetDead(n, false)
	}

	for app, gone := range affected {
		d.applyFailurePolicy(app, gone)
	}
}

func containsNode(nodes []wire.NodeID, n wire.NodeID) bool {
	for _, m := range nodes {
		if m == n {
			return true
		}
	}
	return false
}

// applyFailurePolicy handles the loss of nodes hosting an application.
func (d *Daemon) applyFailurePolicy(app wire.AppID, gone []wire.NodeID) {
	d.mu.Lock()
	st := d.apps[app]
	if st == nil || st.status == StatusDone || st.status == StatusFailed {
		d.mu.Unlock()
		return
	}
	// Which ranks died with those nodes?
	var lost []wire.Rank
	for r, node := range st.placement {
		for _, g := range gone {
			if node == g {
				lost = append(lost, r)
			}
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	policy := st.spec.Policy
	size := st.spec.Ranks
	placement := st.placement
	d.mu.Unlock()
	if len(lost) == 0 {
		return
	}
	d.logf("app %d lost ranks %v (nodes %v); policy %v", app, lost, gone, policy)
	d.ev.Emit(evstore.EvApp("rank-lost", app,
		evstore.F("nodes", evstore.List(gone)),
		evstore.F("ranks", evstore.List(lost)),
		evstore.F("policy", policy)))

	switch policy {
	case proc.PolicyKill:
		d.mu.Lock()
		st.status = StatusFailed
		st.failure = fmt.Sprintf("node failure killed ranks %v", lost)
		eps := d.localEndpointsLocked(app)
		delete(d.local, app)
		d.mu.Unlock()
		d.router.Drop(app)
		for _, ep := range eps {
			ep.p.Close()
		}
	case proc.PolicyNotify:
		// Tell surviving local processes which ranks are gone; they
		// repartition and continue (§3.2.2's second mechanism).
		var alive []wire.Rank
		lostSet := map[wire.Rank]bool{}
		d.mu.Lock()
		if st.lost == nil {
			st.lost = make(map[wire.Rank]bool)
		}
		for _, r := range lost {
			st.lost[r] = true
		}
		d.mu.Unlock()
		for _, r := range lost {
			lostSet[r] = true
		}
		for r := 0; r < size; r++ {
			if !lostSet[wire.Rank(r)] {
				alive = append(alive, wire.Rank(r))
			}
		}
		info := proc.LWViewInfo{Alive: alive, Departed: lost}
		d.mu.Lock()
		eps := d.localEndpointsLocked(app)
		d.mu.Unlock()
		for _, ep := range eps {
			ep.p.Deliver(wire.Msg{
				Type: wire.TLWMembership, Kind: proc.LWViewKind, App: app,
				Payload: info.Encode(),
			})
		}
		// A rank lost before its host's join applied no longer holds the
		// start back; the upcall above waits in the processes' start
		// buffer, so the survivors see it once started. The lost ranks
		// will never report; completion may already be satisfied by the
		// survivors.
		d.maybeStart(app)
		d.checkComplete(app)
	case proc.PolicyRestart:
		// The leader computes the recovery line and replicates the
		// restart decision. Everyone else waits for the command.
		if !d.leader() {
			return
		}
		line, err := d.recoveryLine(app)
		if err != nil {
			d.logf("recovery line for app %d: %v", app, err)
			return
		}
		d.logf("restarting app %d from line %v (placement was %v)", app, line, placement)
		if err := d.castCmd(&Cmd{Kind: CmdRestart, App: app, Line: line}); err != nil {
			d.logf("restart cast: %v", err)
		}
	}
}
