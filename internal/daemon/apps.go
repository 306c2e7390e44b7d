package daemon

import (
	"fmt"
	"slices"

	"starfish/internal/ckpt"
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
	return d.ids()
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
	be := d.tierFor(st.spec.Store)
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

// ---- the executor: the agreed state's effects on this node ----

// handleGCS applies one main-group event to the agreed state under d.mu,
// then carries out its effects in order with no lock held.
func (d *Daemon) handleGCS(ev gcs.Event) {
	var effs []effect
	switch ev.Kind {
	case gcs.EView:
		// Re-point the replicated memory store at the new membership before
		// any recovery decision reads from it: replica placement and peer
		// fetches must not target departed nodes.
		if d.cfg.Memory != nil {
			d.cfg.Memory.UpdateView(ev.View.Members)
		}
		d.mu.Lock()
		effs = d.agreed.viewChange(ev.View)
		d.mu.Unlock()
	case gcs.ECast:
		cmd, err := decodeCmd(ev.Payload)
		if err != nil {
			d.logf("bad command: %v", err)
			return
		}
		d.mu.Lock()
		effs = d.agreed.apply(&cmd)
		d.mu.Unlock()
	}
	for _, e := range effs {
		d.do(e)
	}
}

// do carries out one effect. Only the loop goroutine writes d.local, so it
// reads it without the lock.
func (d *Daemon) do(e effect) {
	switch e := e.(type) {
	case spawn:
		d.spawnLocal(e)
	case closeApp:
		d.mu.Lock()
		eps := d.local[e.app]
		delete(d.local, e.app)
		d.mu.Unlock()
		d.router.Drop(e.app)
		for _, ep := range eps {
			ep.p.Close()
		}
	case deliver:
		if ep := d.local[e.app][e.rank]; ep != nil {
			ep.p.Deliver(e.msg)
		}
	case contact:
		d.router.SetContact(e.app, e.gen, e.addr)
	case emit:
		d.ev.Emit(e.rec)
	case setDead:
		d.router.SetDead(e.node, e.dead)
	case decideRestart:
		line, err := d.recoveryLine(e.app)
		if err != nil {
			d.logf("recovery line for app %d: %v", e.app, err)
			return
		}
		d.logf("restarting app %d from line %v", e.app, line)
		if err := d.castCmd(&Cmd{Kind: CmdRestart, App: e.app, Line: line}); err != nil {
			d.logf("restart cast: %v", err)
		}
	case dropCheckpoints:
		d.tierFor(e.store).DropApp(e.app)
	}
}

// spawnLocal creates this daemon's share of an application's processes for
// one generation and, once its endpoint on the app's stream has joined,
// announces their addresses with a CmdJoin.
func (d *Daemon) spawnLocal(s spawn) {
	addrs := make(map[wire.Rank]string, len(s.ranks))
	eps := make(map[wire.Rank]*endpoint, len(s.ranks))
	for _, rank := range s.ranks {
		p, err := proc.New(proc.Config{
			Spec:       s.spec,
			Rank:       rank,
			Arch:       d.cfg.Arch,
			Store:      d.tierFor(s.spec.Store),
			ToDaemon:   d.fromProcess(s.app, s.gen, rank),
			Transport:  d.cfg.Transport,
			ListenAddr: d.cfg.DataAddr(s.app, s.gen, rank),
			Events:     d.cfg.Events.Emitter("proc"),
			Logf:       d.cfg.Logf,
		})
		if err != nil {
			d.logf("spawn app %d rank %d: %v", s.app, rank, err)
			continue
		}
		eps[rank] = &endpoint{p: p}
		addrs[rank] = p.Addr()
		p.Start()
	}
	d.mu.Lock()
	d.local[s.app] = eps
	d.mu.Unlock()
	// Close waits for every process spawned; forget those already gone.
	d.spawned = slices.DeleteFunc(d.spawned, func(p *proc.Process) bool {
		select {
		case <-p.Done():
			return true
		default:
			return false
		}
	})
	for _, ep := range eps {
		d.spawned = append(d.spawned, ep.p)
	}
	// The hosts form the app's stream; the router calls back once this
	// node's endpoint joined it (the creator first, carrying its contact in
	// the announce). The app starts when every host's CmdJoin has applied,
	// so by then every host's stream endpoint is up.
	d.router.Ensure(s.app, s.gen, s.hosts, func(gcsAddr string) {
		join := &Cmd{Kind: CmdJoin, App: s.app, Node: d.cfg.Node, Gen: s.gen, Addrs: addrs, Contact: gcsAddr}
		if err := d.castCmd(join); err != nil {
			d.logf("join app %d gen %d: %v", s.app, s.gen, err)
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
			done := &Cmd{Kind: CmdRankDone, App: im.app, Rank: im.rank, Gen: im.gen, Err: string(im.m.Payload)}
			if err := d.castCmd(done); err != nil {
				d.logf("rank-done app %d rank %d gen %d: %v", im.app, im.rank, im.gen, err)
			}
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
