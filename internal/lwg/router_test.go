package lwg

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"starfish/internal/gcs"
	"starfish/internal/leakcheck"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// The router tests simulate the daemon layer around a set of Routers: a
// single totally-ordered "main stream" (the bus) carries the join announces
// exactly as the daemon's CmdJoin casts would, and each node's harness
// applies them in order. The properties checked, per app and per member:
// every scoped cast is delivered exactly once, on the stream, and every
// member settles on the same final stream view.

// mainMsg is one simulated join announce on the main group.
type mainMsg struct {
	app  wire.AppID
	node wire.NodeID
	addr string // the creator's stream contact ("" from other members)
}

// rtHarness wires n routers to one fastnet plus the simulated main bus.
type rtHarness struct {
	t       *testing.T
	nodes   []wire.NodeID
	routers map[wire.NodeID]*Router
	apps    map[wire.AppID][]wire.NodeID
	// absent names, per app, a member whose daemon never gets round to
	// Ensure (it died mid-formation); when that is the stream's creator the
	// group never forms and nobody announces.
	absent map[wire.AppID]wire.NodeID

	bus chan mainMsg

	mu    sync.Mutex
	seen  map[wire.NodeID]map[wire.AppID]map[string]int // node -> app -> payload -> count
	joins map[wire.AppID][]wire.NodeID                  // announces, in main-stream order
	addrs map[wire.AppID]string                         // creator contact announced per app ("" if none)
	views map[wire.NodeID]map[wire.AppID]gcs.View       // latest stream view per node per app

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRtHarness(t *testing.T, n int, apps map[wire.AppID][]wire.NodeID) *rtHarness {
	t.Helper()
	fn := vni.NewFastnet(0)
	h := &rtHarness{
		t:       t,
		routers: make(map[wire.NodeID]*Router),
		apps:    apps,
		bus:     make(chan mainMsg, 4096),
		seen:    make(map[wire.NodeID]map[wire.AppID]map[string]int),
		joins:   make(map[wire.AppID][]wire.NodeID),
		addrs:   make(map[wire.AppID]string),
		views:   make(map[wire.NodeID]map[wire.AppID]gcs.View),
		stop:    make(chan struct{}),
	}
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		h.nodes = append(h.nodes, id)
		h.seen[id] = make(map[wire.AppID]map[string]int)
		h.views[id] = make(map[wire.AppID]gcs.View)
		r := NewRouter(RouterConfig{
			Self:      id,
			Transport: fn,
			GroupAddr: func(app wire.AppID, gen uint32) string {
				return fmt.Sprintf("lwg-a%d-g%d-n%d", app, gen, id)
			},
			HeartbeatEvery: 2 * time.Millisecond,
			FailAfter:      20 * time.Millisecond,
		})
		h.routers[id] = r
		h.wg.Add(1)
		go h.pumpRouter(id, r)
	}
	h.wg.Add(1)
	go h.pumpBus()
	t.Cleanup(func() {
		for _, r := range h.routers {
			r.Close()
		}
		close(h.stop)
		h.wg.Wait()
	})
	return h
}

// pumpRouter drains one router's merged group events.
func (h *rtHarness) pumpRouter(id wire.NodeID, r *Router) {
	defer h.wg.Done()
	for ge := range r.Events() {
		switch ge.Ev.Kind {
		case gcs.ECast:
			h.record(id, ge.App, string(ge.Ev.Payload))
		case gcs.EView:
			h.mu.Lock()
			h.views[id][ge.App] = ge.Ev.View
			h.mu.Unlock()
		}
	}
}

// pumpBus applies the totally ordered main stream: record each announce
// and fan the creator's contact out to every router.
func (h *rtHarness) pumpBus() {
	defer h.wg.Done()
	for {
		select {
		case m := <-h.bus:
			h.mu.Lock()
			h.joins[m.app] = append(h.joins[m.app], m.node)
			if m.addr != "" {
				h.addrs[m.app] = m.addr
			}
			h.mu.Unlock()
			if m.addr != "" {
				for _, id := range h.nodes {
					h.routers[id].SetContact(m.app, 1, m.addr)
				}
			}
		case <-h.stop:
			return
		}
	}
}

// announced reports whether node's join announce for app reached the bus.
func (h *rtHarness) announced(app wire.AppID, node wire.NodeID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range h.joins[app] {
		if n == node {
			return true
		}
	}
	return false
}

// ensure starts node's endpoint for app, announcing on the bus.
func (h *rtHarness) ensure(app wire.AppID, node wire.NodeID) {
	h.routers[node].Ensure(app, 1, h.apps[app], func(gcsAddr string) {
		h.bus <- mainMsg{app: app, node: node, addr: gcsAddr}
	})
}

// forms reports whether app's stream can form: its creator is present.
func (h *rtHarness) forms(app wire.AppID) bool {
	return h.absent[app] != Creator(app, h.apps[app])
}

// waitJoins blocks until every present member of every forming app
// announced (the daemon's maybeStart gate).
func (h *rtHarness) waitJoins() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for app, members := range h.apps {
			for _, node := range members {
				if h.forms(app) && node != h.absent[app] && !h.announced(app, node) {
					done = false
				}
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatal("timed out waiting for the join announces")
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *rtHarness) record(node wire.NodeID, app wire.AppID, payload string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen[node] == nil {
		return // crashed node: deliveries after close are not asserted on
	}
	byApp := h.seen[node]
	if byApp[app] == nil {
		byApp[app] = make(map[string]int)
	}
	byApp[app][payload]++
}

// ensureAll starts every (present) member's endpoint for every app and
// waits for the announces of every app whose stream can form.
func (h *rtHarness) ensureAll() {
	h.t.Helper()
	// A daemon sees an app's launch (its Ensure) before any member's
	// announce, both being main-stream casts; holding the lock pumpBus needs
	// keeps a quick creator's contact from reaching a router ahead of its
	// Ensure.
	h.mu.Lock()
	for app, members := range h.apps {
		for _, node := range members {
			if node != h.absent[app] {
				h.ensure(app, node)
			}
		}
	}
	h.mu.Unlock()
	h.waitJoins()
}

// castAll sends k tagged casts per member per app, in a seed-shuffled
// order, each on the app's stream: a cast the stream refuses fails the test.
func (h *rtHarness) castAll(seed uint64, k int, round string, members func(wire.AppID) []wire.NodeID) {
	h.t.Helper()
	type job struct {
		app  wire.AppID
		node wire.NodeID
		i    int
	}
	var jobs []job
	for app := range h.apps {
		for _, node := range members(app) {
			for i := 0; i < k; i++ {
				jobs = append(jobs, job{app, node, i})
			}
		}
	}
	// Deterministic shuffle: interleaving differs per seed.
	rng := seed*6364136223846793005 + 1442695040888963407
	for i := len(jobs) - 1; i > 0; i-- {
		rng = rng*6364136223846793005 + 1442695040888963407
		j := int((rng >> 33) % uint64(i+1))
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	for _, jb := range jobs {
		payload := fmt.Sprintf("%s-a%d-n%d-%d", round, jb.app, jb.node, jb.i)
		if err := h.routers[jb.node].Cast(jb.app, 1, []byte(payload)); err != nil {
			h.t.Fatalf("app %d node %d: Cast on a formed stream = %v", jb.app, jb.node, err)
		}
	}
}

// waitExactlyOnce blocks until every member of every app saw every
// expected payload of the round, then asserts none arrived twice.
func (h *rtHarness) waitExactlyOnce(k int, round string, members func(wire.AppID) []wire.NodeID) {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		missing := ""
		h.mu.Lock()
		for app := range h.apps {
			ms := members(app)
			for _, receiver := range ms {
				for _, sender := range ms {
					for i := 0; i < k; i++ {
						payload := fmt.Sprintf("%s-a%d-n%d-%d", round, app, sender, i)
						if h.seen[receiver][app][payload] == 0 {
							missing = fmt.Sprintf("node %d app %d payload %s", receiver, app, payload)
						}
					}
				}
			}
		}
		h.mu.Unlock()
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("cast never delivered: %s", missing)
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for app := range h.apps {
		ms := members(app)
		for _, receiver := range ms {
			for payload, n := range h.seen[receiver][app] {
				if n > 1 {
					h.t.Fatalf("node %d app %d: payload %q delivered %d times", receiver, app, payload, n)
				}
			}
		}
	}
}

// waitViewAgreement blocks until every listed member's latest stream view
// for every app has exactly the expected member set, then asserts the
// views agree (same id, coordinator, members).
func (h *rtHarness) waitViewAgreement(members func(wire.AppID) []wire.NodeID) {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		h.mu.Lock()
		for app := range h.apps {
			ms := members(app)
			var ref gcs.View
			for i, node := range ms {
				v := h.views[node][app]
				if !sameIDs(v.Members, ms) {
					ok = false
					break
				}
				if i == 0 {
					ref = v
				} else if v.ID != ref.ID || v.Coord != ref.Coord {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		h.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			h.mu.Lock()
			state := fmt.Sprintf("%v", h.views)
			h.mu.Unlock()
			h.t.Fatalf("stream views never converged: %s", state)
		}
		time.Sleep(time.Millisecond)
	}
}

func sameIDs(a, b []wire.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[wire.NodeID]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

func without(ms []wire.NodeID, gone wire.NodeID) []wire.NodeID {
	var out []wire.NodeID
	for _, m := range ms {
		if m != gone {
			out = append(out, m)
		}
	}
	return out
}

// runGroups counts the goroutines running a group's lifecycle, in every
// router of the test binary.
func runGroups() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("lwg.(*Router).runGroup("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitRunGroups blocks until exactly want group goroutines remain.
func waitRunGroups(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runGroups() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d group goroutines, want %d", runGroups(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterPropertySeeded is the concurrent-streams property test: four
// apps with overlapping member sets run independent sequencer streams on
// four nodes; every member must agree on every stream view and deliver
// every scoped cast exactly once — including across a member crash whose
// verdict arrives from the (simulated) main group, which for app 5 kills
// the stream's own coordinator. App 6 never gets a stream at all: its
// creator stays absent, so the other member waits, never announces, and
// has every cast refused; no cast of the app is delivered anywhere, and
// Drop ends the wait.
func TestRouterPropertySeeded(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			leakcheck.Check(t, 0)
			apps := map[wire.AppID][]wire.NodeID{
				1: {1, 2, 3, 4},
				2: {1, 2},
				3: {2, 3, 4},
				5: {1, 2, 4}, // Creator(5, {1,2,4}) == 4: the crash below kills its coordinator
				6: {1, 3},    // Creator(6, {1,3}) == 1, which never shows up
			}
			h := newRtHarness(t, 4, apps)
			h.absent = map[wire.AppID]wire.NodeID{6: 1}
			h.ensureAll()
			formed := time.Now()

			streams := func(app wire.AppID) []wire.NodeID {
				if app == 6 {
					return nil
				}
				return apps[app]
			}
			h.castAll(seed, 20, "r1", streams)
			h.waitExactlyOnce(20, "r1", streams)
			h.waitViewAgreement(streams)

			// Crash node 4; the main group's verdict reaches the survivors'
			// routers, whose per-app engines all read it from there.
			victim := wire.NodeID(4)
			h.mu.Lock()
			delete(h.seen, victim) // stop asserting on the dead node's deliveries
			h.mu.Unlock()
			h.routers[victim].Close()
			for _, id := range h.nodes {
				if id != victim {
					h.routers[id].SetDead(victim, true)
				}
			}

			survivors := func(app wire.AppID) []wire.NodeID { return without(streams(app), victim) }
			h.waitViewAgreement(survivors)
			h.castAll(seed+7, 10, "r2", survivors)
			h.waitExactlyOnce(10, "r2", survivors)

			// App 6, 75 heartbeats on: no announce, no contact, every cast
			// refused and none delivered.
			time.Sleep(time.Until(formed.Add(75 * 2 * time.Millisecond)))
			if err := h.routers[3].Cast(6, 1, []byte("x")); !errors.Is(err, ErrNoGroup) {
				t.Fatalf("app 6: Cast without a stream = %v, want ErrNoGroup", err)
			}
			h.mu.Lock()
			joins, contact := h.joins[6], h.addrs[6]
			delivered := len(h.seen[1][6]) + len(h.seen[3][6])
			h.mu.Unlock()
			if len(joins) != 0 || contact != "" || delivered != 0 {
				t.Fatalf("app 6 without its creator: announces %v, contact %q, %d casts delivered", joins, contact, delivered)
			}
			before := runGroups()
			h.routers[3].Drop(6)
			waitRunGroups(t, before-1)
		})
	}
}

// TestRouterLateCreator: a member that waits longer than any formation
// deadline for a slow creator still joins the creator's stream once it
// announces, and announces only after it; every cast rides the stream and
// is delivered exactly once.
func TestRouterLateCreator(t *testing.T) {
	apps := map[wire.AppID][]wire.NodeID{7: {1, 2}}
	h := newRtHarness(t, 2, apps)
	creator := Creator(7, apps[7])
	member := without(apps[7], creator)[0]

	h.ensure(7, member)
	time.Sleep(75 * 2 * time.Millisecond) // 75 heartbeats
	if h.announced(7, member) {
		t.Fatal("member announced before its creator")
	}
	h.ensure(7, creator)
	h.waitJoins()
	h.mu.Lock()
	order := h.joins[7]
	h.mu.Unlock()
	if len(order) != 2 || order[0] != creator {
		t.Fatalf("announces %v, want the creator %d first", order, creator)
	}

	all := func(app wire.AppID) []wire.NodeID { return apps[app] }
	h.castAll(3, 20, "late", all)
	h.waitExactlyOnce(20, "late", all)
}

// TestRouterCreatorGone: a creator that announced its contact and then
// died leaves the member retrying a join that cannot succeed. The member
// never announces and Cast refuses its casts; Drop releases it.
func TestRouterCreatorGone(t *testing.T) {
	apps := map[wire.AppID][]wire.NodeID{8: {1, 2}}
	h := newRtHarness(t, 2, apps)
	leakcheck.Check(t, 0) // checked before the harness closes the routers
	creator := Creator(8, apps[8])
	member := without(apps[8], creator)[0]

	contact := make(chan string, 1)
	h.routers[creator].Ensure(8, 1, apps[8], func(addr string) { contact <- addr })
	addr := <-contact
	h.routers[creator].Close()

	h.ensure(8, member)
	h.routers[member].SetContact(8, 1, addr)
	time.Sleep(150 * 2 * time.Millisecond) // past a failed join's 50 heartbeats, twice
	if h.announced(8, member) {
		t.Fatal("member announced without a stream")
	}
	if err := h.routers[member].Cast(8, 1, []byte("x")); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("Cast without a stream = %v, want ErrNoGroup", err)
	}
	h.routers[member].Drop(8)
}
