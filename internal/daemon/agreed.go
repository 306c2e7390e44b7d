package daemon

import (
	"fmt"
	"slices"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/wire"
)

// The cluster configuration every daemon keeps coherent (§3.1.1) is one
// value, agreed: each daemon applies the same totally ordered commands and
// views to its own copy and so holds the same state. The value touches
// nothing outside itself. apply and viewChange return, in order, the
// effects a command or view has on this node's world — processes to spawn,
// message or close, the app streams, the event plane — and the daemon loop
// carries them out with no lock held (Daemon.do).

// agreed is the replicated cluster configuration.
type agreed struct {
	// self is this node. It picks the local ranks out of a placement and
	// decides leadership; no other part of the state depends on it.
	self wire.NodeID
	// view is the installed main-group view: its members are the nodes
	// placements use, and its lowest member leads.
	view gcs.View
	apps map[wire.AppID]*appState
	// disabled nodes are excluded from new placements.
	disabled map[wire.NodeID]bool
	params   map[string]string
}

func newAgreed(self wire.NodeID) agreed {
	return agreed{
		self:     self,
		apps:     make(map[wire.AppID]*appState),
		disabled: make(map[wire.NodeID]bool),
		params:   make(map[string]string),
	}
}

// appState is the replicated per-application state.
type appState struct {
	spec      proc.AppSpec
	status    AppStatus
	gen       uint32
	placement map[wire.Rank]wire.NodeID
	// addrs collects rank data addresses from the current generation's
	// CmdJoins; the app starts once it holds every rank's.
	addrs map[wire.Rank]string
	// line is the recovery line the current generation restores from
	// (nil for a fresh launch).
	line ckpt.RecoveryLine
	// started records that CfgStart was issued for the current gen.
	started bool
	// done tracks finished ranks of the current gen.
	done map[wire.Rank]bool
	// lost tracks ranks abandoned under PolicyNotify (their nodes died
	// and the survivors repartitioned); they no longer count toward
	// completion.
	lost map[wire.Rank]bool
	// failure holds the first rank error, if any.
	failure string
}

// ended reports whether the app finished or failed: it has no incarnation
// left and no command or view changes it again.
func (st *appState) ended() bool {
	return st.status == StatusDone || st.status == StatusFailed
}

// An effect is one thing a command or view asks of this node's world: a
// value of one of the types below, which Daemon.do carries out.
type effect any

// spawn starts this node's ranks of an app's generation and joins the
// generation's stream over its hosts.
type spawn struct {
	app   wire.AppID
	gen   uint32
	spec  proc.AppSpec
	ranks []wire.Rank   // placed here, ascending
	hosts []wire.NodeID // every host of the generation, ascending
}

// closeApp tears the app's local incarnation down: its stream is dropped
// and its local processes are closed and forgotten.
type closeApp struct{ app wire.AppID }

// deliver hands one message to one local rank of the app.
type deliver struct {
	app  wire.AppID
	rank wire.Rank
	msg  wire.Msg
}

// contact hands the creator's stream address to the local router.
type contact struct {
	app  wire.AppID
	gen  uint32
	addr string
}

// emit records one lifecycle event.
type emit struct{ rec evstore.Record }

// setDead mirrors a main-group verdict to the app streams.
type setDead struct {
	node wire.NodeID
	dead bool
}

// decideRestart, on the leader only, reads the app's recovery line and
// casts the CmdRestart every daemon then applies.
type decideRestart struct{ app wire.AppID }

// dropCheckpoints, on the leader only, discards a deleted app's
// checkpoints from the tier it wrote them to.
type dropCheckpoints struct {
	app   wire.AppID
	store ckpt.StoreKind
}

// apply applies one replicated command and returns its effects here.
//
//starfish:deterministic
func (a *agreed) apply(c *Cmd) []effect {
	switch c.Kind {
	case CmdSubmit:
		return a.submit(c)
	case CmdDelete:
		return a.remove(c.App)
	case CmdSuspend, CmdResume:
		return a.suspend(c)
	case CmdCheckpoint:
		st := a.apps[c.App]
		if st == nil {
			return nil
		}
		// Under the independent protocol every rank checkpoints; otherwise
		// rank 0 initiates the round.
		ranks := a.here(st)
		if st.spec.Protocol != ckpt.Independent {
			ranks = slices.DeleteFunc(ranks, func(r wire.Rank) bool { return r != 0 })
		}
		return tell(c.App, ranks, wire.Msg{Type: wire.TConfiguration, Kind: proc.CfgCkptNow, App: c.App})
	case CmdRankDone:
		st := a.apps[c.App]
		if st == nil || c.Gen != st.gen || st.ended() {
			return nil
		}
		if c.Err != "" && c.Err != proc.ErrAborted.Error() {
			// A genuine application error: tear everything down.
			return st.fail(c.App, evstore.EvRank("app-failed", c.App, c.Rank, evstore.F("err", c.Err)), c.Err)
		}
		st.done[c.Rank] = true
		return st.complete(c.App)
	case CmdRestart:
		return a.restart(c)
	case CmdSetNodeEnabled:
		if c.Flag {
			delete(a.disabled, c.Node)
		} else {
			a.disabled[c.Node] = true
		}
	case CmdSetParam:
		a.params[c.Key] = c.Value
	case CmdJoin:
		// A host's rank addresses for the app's current generation, and the
		// creator's stream contact; the app starts once every rank's
		// address is known.
		st := a.apps[c.App]
		if st == nil || st.ended() || st.gen != c.Gen || st.started {
			return nil
		}
		for r, addr := range c.Addrs {
			st.addrs[r] = addr
		}
		return append([]effect{contact{c.App, c.Gen, c.Contact}}, a.start(c.App, st)...)
	}
	return nil
}

func (a *agreed) submit(c *Cmd) []effect {
	if c.Spec == nil {
		return nil
	}
	if _, dup := a.apps[c.App]; dup {
		return nil
	}
	st := &appState{
		spec:   *c.Spec,
		status: StatusLaunching,
		gen:    1,
		done:   make(map[wire.Rank]bool),
		addrs:  make(map[wire.Rank]string),
	}
	st.placement = placeRanks(st.spec.Ranks, a.eligible())
	a.apps[c.App] = st
	if st.placement == nil {
		return st.fail(c.App, evstore.EvApp("app-failed", c.App, evstore.F("err", ErrNoNodes)), ErrNoNodes.Error())
	}
	out := []effect{emit{evstore.EvApp("submit", c.App,
		evstore.F("name", st.spec.Name),
		evstore.F("ranks", st.spec.Ranks),
		evstore.F("protocol", st.spec.Protocol),
		evstore.F("policy", st.spec.Policy))}}
	return append(out, a.spawn(c.App, st)...)
}

func (a *agreed) remove(app wire.AppID) []effect {
	st, known := a.apps[app]
	delete(a.apps, app)
	var out []effect
	store := ckpt.StoreDisk
	if known {
		out = append(out, emit{evstore.EvApp("delete", app)}, closeApp{app})
		store = st.spec.Store
	}
	if a.leader() {
		out = append(out, dropCheckpoints{app, store})
	}
	return out
}

func (a *agreed) suspend(c *Cmd) []effect {
	st := a.apps[c.App]
	if st == nil {
		return nil
	}
	kind, status, name := proc.CfgSuspend, StatusSuspended, "suspend"
	if c.Kind == CmdResume {
		kind, status, name = proc.CfgResume, StatusRunning, "resume"
	}
	if st.status == StatusRunning || st.status == StatusSuspended {
		st.status = status
	}
	out := []effect{emit{evstore.EvApp(name, c.App)}}
	return append(out, tell(c.App, a.here(st), wire.Msg{Type: wire.TConfiguration, Kind: kind, App: c.App})...)
}

// restart relaunches a live app's next generation from c.Line. Completed
// apps are not restarted (a migrate command can race with completion).
func (a *agreed) restart(c *Cmd) []effect {
	st := a.apps[c.App]
	if st == nil || st.ended() {
		return nil
	}
	st.gen++
	st.status = StatusRestarting
	st.line = c.Line
	st.started = false
	st.done = make(map[wire.Rank]bool)
	st.addrs = make(map[wire.Rank]string)
	prev := st.placement
	if c.Flag {
		st.placement = placeRanks(st.spec.Ranks, a.eligible())
	} else {
		st.placement = restartPlacement(c.App, st.spec.Ranks, prev, a.eligible())
	}
	if st.placement == nil {
		return st.fail(c.App, evstore.EvApp("app-failed", c.App, evstore.F("err", ErrNoNodes)), ErrNoNodes.Error())
	}
	placement := make([]wire.NodeID, st.spec.Ranks)
	var moved []wire.Rank
	for r := range placement {
		placement[r] = st.placement[wire.Rank(r)]
		if placement[r] != prev[wire.Rank(r)] {
			moved = append(moved, wire.Rank(r))
		}
	}
	// The previous incarnation closes, its stream with it, before the new
	// generation spawns and forms a fresh one.
	out := []effect{emit{evstore.EvApp("restarting", c.App,
		evstore.F("gen", st.gen), evstore.F("line", c.Line),
		evstore.F("placement", evstore.List(placement)),
		evstore.F("moved", evstore.List(moved)))}, closeApp{c.App}}
	return append(out, a.spawn(c.App, st)...)
}

// viewChange installs a main-group view: it mirrors the view's failure
// verdicts to the app streams, whose engines run no detection of their own
// (re-admitted nodes get their verdict retracted), then applies the
// fault-tolerance policy (§3.2.2) of every live app, in id order, that had
// ranks placed on a departed node. Placement decides, whether or not the
// node's CmdJoin sequenced: a host that dies before its join would
// otherwise leave the app waiting forever for a join that is never coming.
// A rank an earlier view already lost (PolicyNotify) is not lost again.
//
//starfish:deterministic
func (a *agreed) viewChange(v gcs.View) []effect {
	prev := a.view
	a.view = v
	var out []effect
	for _, n := range prev.Members {
		if !v.Contains(n) {
			out = append(out, setDead{n, true})
		}
	}
	for _, n := range v.Members {
		out = append(out, setDead{n, false})
	}
	for _, app := range a.ids() {
		st := a.apps[app]
		if st.ended() {
			continue
		}
		var gone []wire.NodeID
		var lost []wire.Rank
		for r := range wire.Rank(st.spec.Ranks) {
			if node := st.placement[r]; !v.Contains(node) && !st.lost[r] {
				lost = append(lost, r)
				if !slices.Contains(gone, node) {
					gone = append(gone, node)
				}
			}
		}
		if len(lost) > 0 {
			out = append(out, a.lose(app, st, gone, lost)...)
		}
	}
	return out
}

// lose applies an app's failure policy to the ranks that died with the
// gone nodes.
func (a *agreed) lose(app wire.AppID, st *appState, gone []wire.NodeID, lost []wire.Rank) []effect {
	out := []effect{emit{evstore.EvApp("rank-lost", app,
		evstore.F("nodes", evstore.List(gone)),
		evstore.F("ranks", evstore.List(lost)),
		evstore.F("policy", st.spec.Policy))}}
	switch st.spec.Policy {
	case proc.PolicyKill:
		err := fmt.Sprintf("node failure killed ranks %v", lost)
		return append(out, st.fail(app, evstore.EvApp("app-failed", app, evstore.F("err", err)), err)...)
	case proc.PolicyNotify:
		// Tell surviving local processes which ranks are gone; they
		// repartition and continue (§3.2.2's second mechanism).
		if st.lost == nil {
			st.lost = make(map[wire.Rank]bool)
		}
		var alive []wire.Rank
		for r := range wire.Rank(st.spec.Ranks) {
			if slices.Contains(lost, r) {
				st.lost[r] = true
			} else if !st.lost[r] {
				alive = append(alive, r)
			}
		}
		info := proc.LWViewInfo{Alive: alive, Departed: lost}
		out = append(out, tell(app, a.here(st), wire.Msg{
			Type: wire.TLWMembership, Kind: proc.LWViewKind, App: app, Payload: info.Encode(),
		})...)
		// A rank lost before its host's join applied no longer holds the
		// start back; the upcall above waits in the processes' start
		// buffer, so the survivors see it once started. The lost ranks
		// will never report; completion may already be satisfied by the
		// survivors.
		out = append(out, a.start(app, st)...)
		return append(out, st.complete(app)...)
	case proc.PolicyRestart:
		// The leader computes the recovery line and replicates the
		// restart decision. Everyone else waits for the command.
		if a.leader() {
			out = append(out, decideRestart{app})
		}
	}
	return out
}

// start issues CfgStart to the local ranks once every rank of the current
// generation is accounted for: its data address is known, or it was lost
// (PolicyNotify) — a host lost before its join never sends one.
func (a *agreed) start(app wire.AppID, st *appState) []effect {
	if st.started {
		return nil
	}
	for r := range wire.Rank(st.spec.Ranks) {
		if _, ok := st.addrs[r]; !ok && !st.lost[r] {
			return nil // not all ranks announced yet
		}
	}
	st.started = true
	if st.status == StatusLaunching || st.status == StatusRestarting {
		st.status = StatusRunning
	}
	var next uint64 = 1
	for _, idx := range st.line {
		if idx >= next {
			next = idx + 1
		}
	}
	out := []effect{emit{evstore.EvApp("running", app, evstore.F("gen", st.gen))}}
	for _, r := range a.here(st) {
		si := proc.StartInfo{Gen: st.gen, Size: st.spec.Ranks, Addrs: st.addrs, NextCkptIndex: next}
		if st.line != nil {
			si.Restore = true
			si.RestoreIndex = st.line[r]
			si.Line = map[wire.Rank]uint64(st.line)
		}
		out = append(out, deliver{app, r, wire.Msg{
			Type: wire.TConfiguration, Kind: proc.CfgStart, App: app, Payload: si.Encode(),
		}})
	}
	return out
}

// complete marks the app done once every non-lost rank has finished; its
// local incarnation then closes.
func (st *appState) complete(app wire.AppID) []effect {
	for r := range wire.Rank(st.spec.Ranks) {
		if !st.done[r] && !st.lost[r] {
			return nil
		}
	}
	st.status = StatusDone
	return []effect{emit{evstore.EvApp("app-done", app)}, closeApp{app}}
}

// fail ends the app on err, recorded by rec; its local incarnation closes.
func (st *appState) fail(app wire.AppID, rec evstore.Record, err string) []effect {
	st.status = StatusFailed
	st.failure = err
	return []effect{emit{rec}, closeApp{app}}
}

// spawn starts the current generation's local ranks, if any are placed
// here: a node that hosts none is not in the generation's stream.
func (a *agreed) spawn(app wire.AppID, st *appState) []effect {
	ranks := a.here(st)
	if len(ranks) == 0 {
		return nil
	}
	var hosts []wire.NodeID
	for r := range wire.Rank(st.spec.Ranks) {
		if n := st.placement[r]; !slices.Contains(hosts, n) {
			hosts = append(hosts, n)
		}
	}
	slices.Sort(hosts)
	return []effect{spawn{app, st.gen, st.spec, ranks, hosts}}
}

// here lists the ranks of the app's live incarnation placed on this node,
// ascending.
func (a *agreed) here(st *appState) []wire.Rank {
	if st.ended() {
		return nil
	}
	var out []wire.Rank
	for r := range wire.Rank(st.spec.Ranks) {
		if st.placement[r] == a.self {
			out = append(out, r)
		}
	}
	return out
}

// tell delivers one message to each of the given local ranks.
func tell(app wire.AppID, ranks []wire.Rank, m wire.Msg) []effect {
	out := make([]effect, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, deliver{app, r, m})
	}
	return out
}

// ids lists the known application ids, ascending.
func (a *agreed) ids() []wire.AppID {
	out := make([]wire.AppID, 0, len(a.apps))
	for id := range a.apps {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// leader reports whether this node leads the view (lowest id): the one
// that makes non-deterministic decisions (recovery lines) and turns them
// into deterministic commands.
func (a *agreed) leader() bool {
	return len(a.view.Members) > 0 && a.view.Members[0] == a.self
}

// eligible returns the enabled members of the view, ascending.
func (a *agreed) eligible() []wire.NodeID {
	var out []wire.NodeID
	for _, n := range a.view.Members {
		if !a.disabled[n] {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// placeRanks distributes ranks round-robin over the given nodes. Every
// daemon computes the same placement from the same replicated inputs.
func placeRanks(ranks int, nodes []wire.NodeID) map[wire.Rank]wire.NodeID {
	if len(nodes) == 0 {
		return nil
	}
	out := make(map[wire.Rank]wire.NodeID, ranks)
	for r := 0; r < ranks; r++ {
		out[wire.Rank(r)] = nodes[r%len(nodes)]
	}
	return out
}

// restartPlacement places a failure restart where the bytes are. Every rank
// whose node is still eligible stays on it — its newest checkpoints are in
// that node's RAM — and each other rank goes to the least-loaded eligible
// node, ties broken by the order the replicated store ranks the holders of
// that rank's checkpoints in: when a replica holder is as idle as any other
// node, the rank restarts beside its replica. Like placeRanks it is a pure
// function of replicated inputs, identical at every daemon.
func restartPlacement(app wire.AppID, ranks int, prev map[wire.Rank]wire.NodeID, nodes []wire.NodeID) map[wire.Rank]wire.NodeID {
	if len(nodes) == 0 {
		return nil
	}
	load := make(map[wire.NodeID]int, len(nodes))
	for _, n := range nodes {
		load[n] = 0
	}
	out := make(map[wire.Rank]wire.NodeID, ranks)
	for r := wire.Rank(0); int(r) < ranks; r++ {
		if n, placed := prev[r]; placed {
			if _, eligible := load[n]; eligible {
				out[r] = n
				load[n]++
			}
		}
	}
	for r := wire.Rank(0); int(r) < ranks; r++ {
		if _, kept := out[r]; kept {
			continue
		}
		order := rstore.HolderOrder(app, r, nodes)
		best := order[0]
		for _, n := range order[1:] {
			if load[n] < load[best] {
				best = n
			}
		}
		out[r] = best
		load[best]++
	}
	return out
}
