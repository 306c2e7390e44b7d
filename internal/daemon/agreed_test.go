package daemon

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// The agreed state's tests run without a cluster: a replica is a bare
// value, fed commands and views by hand, and what it asks of the world is
// its return value.

const testApp = wire.AppID(7)

func testSpec(policy proc.Policy, protocol ckpt.Protocol) proc.AppSpec {
	return proc.AppSpec{ID: testApp, Name: "ring", Ranks: 3, Protocol: protocol,
		Encoder: ckpt.Portable, Policy: policy, Store: ckpt.StoreMemory}
}

func testView(id uint64, members ...wire.NodeID) gcs.View {
	return gcs.View{ID: id, Coord: members[0], Members: members}
}

// replica is node self's state once the view {1, 2, 3} is installed.
func replica(self wire.NodeID) *agreed {
	a := newAgreed(self)
	a.viewChange(testView(1, 1, 2, 3))
	return &a
}

// launched submits app 7 (three ranks: rank r lands on node r+1).
func launched(self wire.NodeID, policy proc.Policy, protocol ckpt.Protocol) *agreed {
	a := replica(self)
	spec := testSpec(policy, protocol)
	a.apply(&Cmd{Kind: CmdSubmit, App: testApp, Spec: &spec})
	return a
}

func rankAddr(r wire.Rank, gen uint32) string { return fmt.Sprintf("data-r%d-g%d", r, gen) }

// joinOf is node's CmdJoin for generation gen: its one rank's address.
func joinOf(node wire.NodeID, gen uint32) *Cmd {
	r := wire.Rank(node - 1)
	return &Cmd{Kind: CmdJoin, App: testApp, Node: node, Gen: gen,
		Addrs: map[wire.Rank]string{r: rankAddr(r, gen)}, Contact: "lwg-contact"}
}

// running has every host's join applied.
func running(self wire.NodeID, policy proc.Policy, protocol ckpt.Protocol) *agreed {
	a := launched(self, policy, protocol)
	for n := wire.NodeID(1); n <= 3; n++ {
		a.apply(joinOf(n, 1))
	}
	return a
}

// viewed installs views on a in order.
func viewed(a *agreed, views ...gcs.View) *agreed {
	for _, v := range views {
		a.viewChange(v)
	}
	return a
}

func then(a *agreed, cmds ...*Cmd) *agreed {
	for _, c := range cmds {
		a.apply(c)
	}
	return a
}

func rankDone(r wire.Rank, gen uint32, err string) *Cmd {
	return &Cmd{Kind: CmdRankDone, App: testApp, Rank: r, Gen: gen, Err: err}
}

var restartLine = ckpt.RecoveryLine{0: 2, 1: 2, 2: 2}

func restartCmd() *Cmd { return &Cmd{Kind: CmdRestart, App: testApp, Line: restartLine} }

func cfgMsg(kind uint16) wire.Msg {
	return wire.Msg{Type: wire.TConfiguration, Kind: kind, App: testApp}
}

func startMsg(gen uint32, addrs map[wire.Rank]string) wire.Msg {
	si := proc.StartInfo{Gen: gen, Size: 3, Addrs: addrs, NextCkptIndex: 1}
	m := cfgMsg(proc.CfgStart)
	m.Payload = si.Encode()
	return m
}

func lwViewMsg(alive, departed []wire.Rank) wire.Msg {
	info := proc.LWViewInfo{Alive: alive, Departed: departed}
	return wire.Msg{Type: wire.TLWMembership, Kind: proc.LWViewKind, App: testApp, Payload: info.Encode()}
}

func addrsOf(gen uint32, ranks ...wire.Rank) map[wire.Rank]string {
	out := map[wire.Rank]string{}
	for _, r := range ranks {
		out[r] = rankAddr(r, gen)
	}
	return out
}

func allDone() map[wire.Rank]bool { return map[wire.Rank]bool{0: true, 1: true, 2: true} }

func cloneApp(st *appState) *appState {
	if st == nil {
		return nil
	}
	c := *st
	c.placement = maps.Clone(st.placement)
	c.addrs = maps.Clone(st.addrs)
	c.done = maps.Clone(st.done)
	c.lost = maps.Clone(st.lost)
	return &c
}

func sameEffects(got, want []effect) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// viewLost3 is what every replica does when node 3 leaves {1, 2, 3}.
var viewLost3 = []effect{setDead{3, true}, setDead{1, false}, setDead{2, false}}

func rankLost(policy proc.Policy) effect {
	return emit{evstore.EvApp("rank-lost", testApp, evstore.F("nodes", "3"), evstore.F("ranks", "2"),
		evstore.F("policy", policy))}
}

// TestAgreedTransitions applies one command or view to a prepared replica
// and checks the app's resulting state and the exact effects, in order.
func TestAgreedTransitions(t *testing.T) {
	restart := testSpec(proc.PolicyRestart, ckpt.StopAndSync)
	placed := map[wire.Rank]wire.NodeID{0: 1, 1: 2, 2: 3}
	submitted := func(*appState) *appState {
		return &appState{spec: restart, status: StatusLaunching, gen: 1, placement: placed,
			addrs: map[wire.Rank]string{}, done: map[wire.Rank]bool{}}
	}
	disabledAll := []*Cmd{
		{Kind: CmdSetNodeEnabled, Node: 1}, {Kind: CmdSetNodeEnabled, Node: 2}, {Kind: CmdSetNodeEnabled, Node: 3},
	}
	cases := []struct {
		name   string
		before *agreed
		cmd    *Cmd
		view   *gcs.View
		// app edits a copy of app 7's state before the step into the
		// state wanted after it; nil wants it unchanged.
		app   func(st *appState) *appState
		check func(a *agreed) bool
		want  []effect
	}{
		{
			name: "submit", before: replica(2),
			cmd: &Cmd{Kind: CmdSubmit, App: testApp, Spec: &restart}, app: submitted,
			want: []effect{
				emit{evstore.EvApp("submit", testApp, evstore.F("name", "ring"), evstore.F("ranks", 3),
					evstore.F("protocol", ckpt.StopAndSync), evstore.F("policy", proc.PolicyRestart))},
				spawn{testApp, 1, restart, []wire.Rank{1}, []wire.NodeID{1, 2, 3}},
			},
		},
		{
			name: "submit on a node hosting no rank", before: replica(4),
			cmd: &Cmd{Kind: CmdSubmit, App: testApp, Spec: &restart}, app: submitted,
			want: []effect{emit{evstore.EvApp("submit", testApp, evstore.F("name", "ring"), evstore.F("ranks", 3),
				evstore.F("protocol", ckpt.StopAndSync), evstore.F("policy", proc.PolicyRestart))}},
		},
		{
			name: "duplicate submit", before: launched(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: &Cmd{Kind: CmdSubmit, App: testApp, Spec: &proc.AppSpec{ID: testApp, Name: "other", Ranks: 1}},
		},
		{
			name: "submit without a spec", before: replica(2), cmd: &Cmd{Kind: CmdSubmit, App: testApp},
		},
		{
			name: "submit with no eligible node", before: then(replica(2), disabledAll...),
			cmd: &Cmd{Kind: CmdSubmit, App: testApp, Spec: &restart},
			app: func(*appState) *appState {
				return &appState{spec: restart, status: StatusFailed, gen: 1, failure: ErrNoNodes.Error(),
					addrs: map[wire.Rank]string{}, done: map[wire.Rank]bool{}}
			},
			want: []effect{emit{evstore.EvApp("app-failed", testApp, evstore.F("err", ErrNoNodes))}, closeApp{testApp}},
		},
		{
			name: "delete on the leader", before: running(1, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: &Cmd{Kind: CmdDelete, App: testApp}, app: func(*appState) *appState { return nil },
			want: []effect{emit{evstore.EvApp("delete", testApp)}, closeApp{testApp}, dropCheckpoints{testApp, ckpt.StoreMemory}},
		},
		{
			name: "delete elsewhere", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: &Cmd{Kind: CmdDelete, App: testApp}, app: func(*appState) *appState { return nil },
			want: []effect{emit{evstore.EvApp("delete", testApp)}, closeApp{testApp}},
		},
		{
			name: "delete of an unknown app on the leader", before: replica(1),
			cmd:  &Cmd{Kind: CmdDelete, App: testApp},
			want: []effect{dropCheckpoints{testApp, ckpt.StoreDisk}},
		},
		{
			name: "suspend", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd:  &Cmd{Kind: CmdSuspend, App: testApp},
			app:  func(st *appState) *appState { st.status = StatusSuspended; return st },
			want: []effect{emit{evstore.EvApp("suspend", testApp)}, deliver{testApp, 1, cfgMsg(proc.CfgSuspend)}},
		},
		{
			name: "suspend before the start", before: launched(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd:  &Cmd{Kind: CmdSuspend, App: testApp},
			want: []effect{emit{evstore.EvApp("suspend", testApp)}, deliver{testApp, 1, cfgMsg(proc.CfgSuspend)}},
		},
		{
			name:   "resume",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync), &Cmd{Kind: CmdSuspend, App: testApp}),
			cmd:    &Cmd{Kind: CmdResume, App: testApp},
			app:    func(st *appState) *appState { st.status = StatusRunning; return st },
			want:   []effect{emit{evstore.EvApp("resume", testApp)}, deliver{testApp, 1, cfgMsg(proc.CfgResume)}},
		},
		{
			name: "checkpoint on the coordinator's node", before: running(1, proc.PolicyRestart, ckpt.StopAndSync),
			cmd:  &Cmd{Kind: CmdCheckpoint, App: testApp},
			want: []effect{deliver{testApp, 0, cfgMsg(proc.CfgCkptNow)}},
		},
		{
			name: "checkpoint elsewhere", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: &Cmd{Kind: CmdCheckpoint, App: testApp},
		},
		{
			name: "independent checkpoint", before: running(2, proc.PolicyRestart, ckpt.Independent),
			cmd:  &Cmd{Kind: CmdCheckpoint, App: testApp},
			want: []effect{deliver{testApp, 1, cfgMsg(proc.CfgCkptNow)}},
		},
		{
			name: "rank done", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: rankDone(1, 1, ""),
			app: func(st *appState) *appState { st.done[1] = true; return st },
		},
		{
			name: "aborted rank counts as done", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: rankDone(1, 1, proc.ErrAborted.Error()),
			app: func(st *appState) *appState { st.done[1] = true; return st },
		},
		{
			name:   "stale-gen rank done",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync), restartCmd()),
			cmd:    rankDone(1, 1, "boom"),
		},
		{
			name: "last rank done",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync),
				rankDone(0, 1, ""), rankDone(1, 1, "")),
			cmd:  rankDone(2, 1, ""),
			app:  func(st *appState) *appState { st.done, st.status = allDone(), StatusDone; return st },
			want: []effect{emit{evstore.EvApp("app-done", testApp)}, closeApp{testApp}},
		},
		{
			name: "rank error", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd:  rankDone(1, 1, "boom"),
			app:  func(st *appState) *appState { st.status, st.failure = StatusFailed, "boom"; return st },
			want: []effect{emit{evstore.EvRank("app-failed", testApp, 1, evstore.F("err", "boom"))}, closeApp{testApp}},
		},
		{
			name: "restart", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: restartCmd(),
			app: func(st *appState) *appState {
				st.gen, st.status, st.line, st.started = 2, StatusRestarting, restartLine, false
				st.addrs, st.done = map[wire.Rank]string{}, map[wire.Rank]bool{}
				return st
			},
			want: []effect{
				emit{evstore.EvApp("restarting", testApp, evstore.F("gen", 2), evstore.F("line", restartLine),
					evstore.F("placement", "1,2,3"), evstore.F("moved", ""))},
				closeApp{testApp},
				spawn{testApp, 2, restart, []wire.Rank{1}, []wire.NodeID{1, 2, 3}},
			},
		},
		{
			name:   "restart with no eligible node",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync), disabledAll...),
			cmd:    restartCmd(),
			app: func(st *appState) *appState {
				st.gen, st.status, st.line, st.started = 2, StatusFailed, restartLine, false
				st.addrs, st.done, st.placement = map[wire.Rank]string{}, map[wire.Rank]bool{}, nil
				st.failure = ErrNoNodes.Error()
				return st
			},
			want: []effect{emit{evstore.EvApp("app-failed", testApp, evstore.F("err", ErrNoNodes))}, closeApp{testApp}},
		},
		{
			name: "restart of a done app",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync),
				rankDone(0, 1, ""), rankDone(1, 1, ""), rankDone(2, 1, "")),
			cmd: restartCmd(),
		},
		{
			name: "disable a node", before: replica(2), cmd: &Cmd{Kind: CmdSetNodeEnabled, Node: 3},
			check: func(a *agreed) bool { return a.disabled[3] && slices.Equal(a.eligible(), []wire.NodeID{1, 2}) },
		},
		{
			name: "enable a node", before: then(replica(2), &Cmd{Kind: CmdSetNodeEnabled, Node: 3}),
			cmd:   &Cmd{Kind: CmdSetNodeEnabled, Node: 3, Flag: true},
			check: func(a *agreed) bool { return len(a.disabled) == 0 },
		},
		{
			name: "set a parameter", before: replica(2), cmd: &Cmd{Kind: CmdSetParam, Key: "k", Value: "v"},
			check: func(a *agreed) bool { return a.params["k"] == "v" },
		},
		{
			name: "join", before: launched(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd:  joinOf(1, 1),
			app:  func(st *appState) *appState { st.addrs = addrsOf(1, 0); return st },
			want: []effect{contact{testApp, 1, "lwg-contact"}},
		},
		{
			name:   "last join starts the app",
			before: then(launched(2, proc.PolicyRestart, ckpt.StopAndSync), joinOf(1, 1), joinOf(3, 1)),
			cmd:    joinOf(2, 1),
			app: func(st *appState) *appState {
				st.addrs, st.started, st.status = addrsOf(1, 0, 1, 2), true, StatusRunning
				return st
			},
			want: []effect{
				contact{testApp, 1, "lwg-contact"},
				emit{evstore.EvApp("running", testApp, evstore.F("gen", 1))},
				deliver{testApp, 1, startMsg(1, addrsOf(1, 0, 1, 2))},
			},
		},
		{
			name: "join for a started gen", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			cmd: joinOf(1, 1),
		},
		{
			name:   "join for an old gen",
			before: then(running(2, proc.PolicyRestart, ckpt.StopAndSync), restartCmd()),
			cmd:    joinOf(1, 1),
		},
		{
			name: "kill policy: a host is lost", before: running(2, proc.PolicyKill, ckpt.StopAndSync),
			view: &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			app: func(st *appState) *appState {
				st.status, st.failure = StatusFailed, "node failure killed ranks [2]"
				return st
			},
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyKill),
				emit{evstore.EvApp("app-failed", testApp, evstore.F("err", "node failure killed ranks [2]"))},
				closeApp{testApp}),
		},
		{
			name: "notify policy: a host is lost", before: running(2, proc.PolicyNotify, ckpt.StopAndSync),
			view: &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			app:  func(st *appState) *appState { st.lost = map[wire.Rank]bool{2: true}; return st },
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyNotify),
				deliver{testApp, 1, lwViewMsg([]wire.Rank{0, 1}, []wire.Rank{2})}),
		},
		{
			name:   "notify policy: a host is lost before its join",
			before: then(launched(2, proc.PolicyNotify, ckpt.StopAndSync), joinOf(1, 1), joinOf(2, 1)),
			view:   &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			app: func(st *appState) *appState {
				st.lost, st.started, st.status = map[wire.Rank]bool{2: true}, true, StatusRunning
				return st
			},
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyNotify),
				deliver{testApp, 1, lwViewMsg([]wire.Rank{0, 1}, []wire.Rank{2})},
				emit{evstore.EvApp("running", testApp, evstore.F("gen", 1))},
				deliver{testApp, 1, startMsg(1, addrsOf(1, 0, 1))}),
		},
		{
			name:   "notify policy: the survivors had finished",
			before: then(running(2, proc.PolicyNotify, ckpt.StopAndSync), rankDone(0, 1, ""), rankDone(1, 1, "")),
			view:   &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			app: func(st *appState) *appState {
				st.lost, st.status = map[wire.Rank]bool{2: true}, StatusDone
				return st
			},
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyNotify),
				deliver{testApp, 1, lwViewMsg([]wire.Rank{0, 1}, []wire.Rank{2})},
				emit{evstore.EvApp("app-done", testApp)}, closeApp{testApp}),
		},
		{
			name:   "notify policy: a later view does not lose a lost rank again",
			before: viewed(running(1, proc.PolicyNotify, ckpt.StopAndSync), testView(2, 1, 2)),
			view:   &gcs.View{ID: 3, Coord: 1, Members: []wire.NodeID{1, 2, 4}},
			want:   []effect{setDead{1, false}, setDead{2, false}, setDead{4, false}},
		},
		{
			name:   "notify policy: a later loss reports only its own ranks",
			before: viewed(running(1, proc.PolicyNotify, ckpt.StopAndSync), testView(2, 1, 2), testView(3, 1, 2, 4)),
			view:   &gcs.View{ID: 4, Coord: 1, Members: []wire.NodeID{1, 4}},
			app:    func(st *appState) *appState { st.lost = map[wire.Rank]bool{1: true, 2: true}; return st },
			want: []effect{setDead{2, true}, setDead{1, false}, setDead{4, false},
				emit{evstore.EvApp("rank-lost", testApp, evstore.F("nodes", "2"), evstore.F("ranks", "1"),
					evstore.F("policy", proc.PolicyNotify))},
				deliver{testApp, 0, lwViewMsg([]wire.Rank{0}, []wire.Rank{1})}},
		},
		{
			name: "restart policy: the leader decides", before: running(1, proc.PolicyRestart, ckpt.StopAndSync),
			view: &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyRestart), decideRestart{testApp}),
		},
		{
			name: "restart policy: the others wait", before: running(2, proc.PolicyRestart, ckpt.StopAndSync),
			view: &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			want: append(slices.Clone(viewLost3), rankLost(proc.PolicyRestart)),
		},
		{
			name:   "a view after the app ended",
			before: then(running(1, proc.PolicyRestart, ckpt.StopAndSync), rankDone(1, 1, "boom")),
			view:   &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2}},
			want:   viewLost3,
			check:  func(a *agreed) bool { return a.view.ID == 2 },
		},
		{
			name: "a node is re-admitted", before: replica(2),
			view:  &gcs.View{ID: 2, Coord: 1, Members: []wire.NodeID{1, 2, 3, 4}},
			want:  []effect{setDead{1, false}, setDead{2, false}, setDead{3, false}, setDead{4, false}},
			check: func(a *agreed) bool { return slices.Equal(a.eligible(), []wire.NodeID{1, 2, 3, 4}) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.before
			want := cloneApp(a.apps[testApp])
			if tc.app != nil {
				want = tc.app(want)
			}
			var got []effect
			if tc.view != nil {
				got = a.viewChange(*tc.view)
			} else {
				got = a.apply(tc.cmd)
			}
			if !sameEffects(got, tc.want) {
				t.Errorf("effects:\n got %+v\nwant %+v", got, tc.want)
			}
			if st := a.apps[testApp]; !reflect.DeepEqual(st, want) {
				t.Errorf("app state:\n got %+v\nwant %+v", st, want)
			}
			if tc.check != nil && !tc.check(a) {
				t.Errorf("state check failed: %+v", a)
			}
		})
	}
}

// TestAgreedReplicasConverge feeds seeded random sequences of commands and
// views to four replicas that differ only in self, each decoding its own
// copy of every command. They must end in equal agreed state; at every step
// the effects that do not depend on self (emit, close, contact, setDead)
// must be equal, the leader-only ones (decideRestart, dropCheckpoints) must
// come from the view's leader alone, and a spawn must start every rank of
// the generation on exactly one replica, the one it is placed on.
func TestAgreedReplicasConverge(t *testing.T) {
	const nodes = 4
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reps := make([]*agreed, nodes)
		for i := range reps {
			a := newAgreed(wire.NodeID(i + 1))
			reps[i] = &a
		}
		var viewID uint64
		for step := range 300 {
			var per [][]effect
			var what string
			if viewID == 0 || rng.Intn(8) == 0 {
				viewID++
				v := randomView(rng, viewID, nodes)
				what = fmt.Sprintf("view %v", v.Members)
				for _, a := range reps {
					per = append(per, a.viewChange(v.Clone()))
				}
			} else {
				c := randomCmd(rng, reps[0])
				what = fmt.Sprintf("%v app %d", c.Kind, c.App)
				enc := encodeCmd(c)
				for _, a := range reps {
					own, err := decodeCmd(enc)
					if err != nil {
						t.Fatal(err)
					}
					per = append(per, a.apply(&own))
				}
			}
			checkStep(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), reps, per)
		}
		for i, a := range reps[1:] {
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"apps", a.apps, reps[0].apps}, {"disabled", a.disabled, reps[0].disabled},
				{"params", a.params, reps[0].params}, {"view", a.view, reps[0].view},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("seed %d: node %d's %s differ from node 1's:\n%+v\n%+v", seed, i+2, f.name, f.got, f.want)
				}
			}
		}
	}
}

func checkStep(t *testing.T, where string, reps []*agreed, per [][]effect) {
	t.Helper()
	shared := func(effs []effect) []effect {
		var out []effect
		for _, e := range effs {
			switch e.(type) {
			case emit, closeApp, contact, setDead:
				out = append(out, e)
			}
		}
		return out
	}
	spawned := map[wire.AppID][]wire.Rank{}
	for i, a := range reps {
		if got, want := shared(per[i]), shared(per[0]); !sameEffects(got, want) {
			t.Fatalf("%s: node %d's shared effects %+v, node 1's %+v", where, a.self, got, want)
		}
		for _, e := range per[i] {
			switch e := e.(type) {
			case decideRestart, dropCheckpoints:
				if !a.leader() {
					t.Fatalf("%s: node %d is not the leader but returned %+v", where, a.self, e)
				}
			case spawn:
				for _, r := range e.ranks {
					if n := a.apps[e.app].placement[r]; n != a.self {
						t.Fatalf("%s: node %d spawns rank %d placed on %d", where, a.self, r, n)
					}
				}
				spawned[e.app] = append(spawned[e.app], e.ranks...)
			case deliver:
				if st := a.apps[e.app]; st == nil || st.placement[e.rank] != a.self {
					t.Fatalf("%s: node %d delivers to rank %d of app %d, not placed here", where, a.self, e.rank, e.app)
				}
			}
		}
	}
	for app, ranks := range spawned {
		slices.Sort(ranks)
		if n := reps[0].apps[app].spec.Ranks; len(ranks) != n || ranks[0] != 0 || ranks[n-1] != wire.Rank(n-1) ||
			len(slices.Compact(ranks)) != n {
			t.Fatalf("%s: app %d's %d ranks spawned as %v", where, app, n, ranks)
		}
	}
}

// randomView draws a non-empty subset of the nodes, ascending.
func randomView(rng *rand.Rand, id uint64, nodes int) gcs.View {
	var members []wire.NodeID
	for n := wire.NodeID(1); int(n) <= nodes; n++ {
		if rng.Intn(4) != 0 {
			members = append(members, n)
		}
	}
	if len(members) == 0 {
		members = []wire.NodeID{wire.NodeID(1 + rng.Intn(nodes))}
	}
	addrs := map[wire.NodeID]string{}
	for _, n := range members {
		addrs[n] = fmt.Sprintf("gcs-%d", n)
	}
	return gcs.View{ID: id, Coord: members[0], Members: members, Addrs: addrs}
}

// randomCmd draws a command, leaning on the replica's state so that joins
// and rank reports mostly target live generations and apps get to start,
// finish, fail and restart.
func randomCmd(rng *rand.Rand, a *agreed) *Cmd {
	app := wire.AppID(1 + rng.Intn(3))
	st := a.apps[app]
	gen := uint32(1 + rng.Intn(3))
	if st != nil && rng.Intn(4) != 0 {
		gen = st.gen
	}
	c := &Cmd{App: app, Gen: gen}
	switch k := rng.Intn(20); {
	case k < 3:
		spec := proc.AppSpec{ID: app, Name: "app", Ranks: 1 + rng.Intn(4),
			Protocol: ckpt.Protocol(1 + rng.Intn(3)), Encoder: ckpt.Portable,
			Policy: proc.Policy(1 + rng.Intn(3)), Store: ckpt.StoreKind(rng.Intn(3))}
		c.Kind, c.Spec = CmdSubmit, &spec
	case k < 4:
		c.Kind = CmdDelete
	case k < 5:
		c.Kind = []CmdKind{CmdSuspend, CmdResume, CmdCheckpoint}[rng.Intn(3)]
	case k < 9:
		c.Kind, c.Rank = CmdRankDone, wire.Rank(rng.Intn(4))
		c.Err = []string{"", "", "", proc.ErrAborted.Error(), "boom"}[rng.Intn(5)]
	case k < 10:
		c.Kind, c.Flag = CmdRestart, rng.Intn(3) == 0
		c.Line = ckpt.RecoveryLine{0: uint64(rng.Intn(5)), 1: uint64(rng.Intn(5))}
	case k < 11:
		c.Kind, c.Node, c.Flag = CmdSetNodeEnabled, wire.NodeID(1+rng.Intn(4)), rng.Intn(3) != 0
	case k < 12:
		c.Kind, c.Key, c.Value = CmdSetParam, fmt.Sprint("k", rng.Intn(3)), fmt.Sprint(rng.Intn(100))
	default:
		c.Kind, c.Node, c.Contact = CmdJoin, wire.NodeID(1+rng.Intn(4)), "contact"
		c.Addrs = map[wire.Rank]string{}
		if st != nil {
			for r, n := range st.placement {
				if n == c.Node {
					c.Addrs[r] = rankAddr(r, gen)
				}
			}
		}
	}
	return c
}
