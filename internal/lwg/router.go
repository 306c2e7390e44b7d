// Package lwg implements Starfish's lightweight groups (§2.1, figure 2).
//
// Every application running on the cluster is associated with a lightweight
// group whose members are the daemons hosting that application's
// processes. Membership derives from the single main Starfish group: the
// members are the app's placement hosts, which every daemon computes from
// the same totally ordered commands, and failure verdicts are the main
// group's, mirrored into every group (Router.SetDead). What the group adds
// is its own sequencer stream, so the scoped casts of disjoint apps are
// ordered independently instead of all through the main group; lightweight
// events do not disturb unrelated nodes.
package lwg

import (
	"errors"
	"sort"
	"sync"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/gcs"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// ErrNoGroup is returned by Cast when this node has no joined stream for
// the app's generation: it has not joined yet, or the group was dropped.
var ErrNoGroup = errors.New("lwg: no per-group stream for app")

// GroupEvent is one event from a per-group sequencer stream, tagged with
// the application and generation it belongs to.
type GroupEvent struct {
	App wire.AppID
	Gen uint32
	Ev  gcs.Event
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Self is this daemon's node id.
	Self wire.NodeID
	// Transport carries the per-group streams (the same network the main
	// group uses).
	Transport vni.Transport
	// GroupAddr returns this node's listen address for one group's
	// endpoint (the cluster harness uses "lwg-a<app>-g<gen>-n<node>"; TCP
	// deployments return an ephemeral host:0 — peers learn the concrete
	// address from the creator's announce).
	GroupAddr func(app wire.AppID, gen uint32) string
	// HeartbeatEvery/FailAfter tune each per-group engine (detection is
	// the main group's, so these only pace maintenance and the gap beacon);
	// a failed stream join is retried every HeartbeatEvery. The daemon
	// passes its own resolved values.
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// Events receives per-group sequencer records; the router stamps the
	// app id, the daemon passes its store's "lwg" emitter.
	Events evstore.Sink
	// Logf, if non-nil, receives debug lines.
	Logf func(format string, args ...any)
}

// groupSink stamps the owning app onto per-group engine records.
type groupSink struct {
	sink evstore.Sink
	app  wire.AppID
}

func (s *groupSink) Emit(r evstore.Record) {
	if s.sink == nil {
		return
	}
	if r.App == 0 {
		r.App = s.app
	}
	s.sink.Emit(r)
}

type groupKey struct {
	app wire.AppID
	gen uint32
}

type grp struct {
	app wire.AppID
	gen uint32
	// contact receives the creator's endpoint address (from its announce
	// on the main stream); capacity 1, first value wins.
	contact chan string
	stop    chan struct{}
	// ep is set once this node's endpoint has joined (guarded by the
	// router mutex).
	ep *gcs.Endpoint
}

// Router runs one gcs stream per (app, generation) this node hosts; the
// stream is the app's lightweight group. Scoped casts for disjoint apps
// ride independent sequencers instead of all ordering through the main
// group. Membership is the caller's (the app's placement hosts, passed to
// Ensure), and failure verdicts are the main group's: SetDead mirrors its
// view changes into one gcs.Verdicts that every per-group engine reads as
// its Detector.
//
// Formation handshake, per group: the deterministic creator (Creator over
// the hosts) joins first and only then announces on the main stream,
// carrying its endpoint address as the contact. The other members wait
// for that contact, however long it takes, join through it and only then
// announce. Because the daemon gates application start on every member's
// announce, every member's stream endpoint exists before the first scoped
// cast, and the stream is the one path a scoped cast takes. A group whose
// creator never announces never forms; the main group's failure policy
// handles the lost host and Drop releases the waiting members.
type Router struct {
	cfg RouterConfig

	// verdicts is the main group's opinion of who is dead, shared by all
	// per-group engines, present and future.
	verdicts gcs.Verdicts

	mu     sync.Mutex
	grps   map[groupKey]*grp
	closed bool

	out    chan GroupEvent
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewRouter creates a router; Close must be called to release its groups.
func NewRouter(cfg RouterConfig) *Router {
	return &Router{
		cfg:    cfg,
		grps:   make(map[groupKey]*grp),
		out:    make(chan GroupEvent, 64),
		stopCh: make(chan struct{}),
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Events returns the merged stream of per-group events.
func (r *Router) Events() <-chan GroupEvent { return r.out }

// Creator returns the deterministic stream creator for a group: the
// member the app id hashes to, so coordinators of different apps spread
// across the cluster instead of piling onto the lowest id.
func Creator(app wire.AppID, nodes []wire.NodeID) wire.NodeID {
	sorted := append([]wire.NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(app)%len(sorted)]
}

// Ensure starts (idempotently) this node's endpoint for one group.
// announce is called at most once, when this node's endpoint has joined the
// stream: with the endpoint address when this node created the stream, with
// the empty string otherwise. It runs on a router goroutine, so an announce
// on the main stream implies the sender's stream endpoint exists. It is
// never called if the group is dropped or the router closed first.
func (r *Router) Ensure(app wire.AppID, gen uint32, nodes []wire.NodeID, announce func(gcsAddr string)) {
	key := groupKey{app, gen}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if _, ok := r.grps[key]; ok {
		r.mu.Unlock()
		return
	}
	g := &grp{app: app, gen: gen, contact: make(chan string, 1), stop: make(chan struct{})}
	r.grps[key] = g
	r.mu.Unlock()

	r.wg.Add(1)
	go r.runGroup(g, Creator(app, nodes), announce)
}

// SetContact feeds the creator's announced endpoint address to a waiting
// group (first value wins; later duplicates are dropped).
func (r *Router) SetContact(app wire.AppID, gen uint32, addr string) {
	if addr == "" {
		return
	}
	r.mu.Lock()
	g := r.grps[groupKey{app, gen}]
	r.mu.Unlock()
	if g == nil {
		return
	}
	select {
	case g.contact <- addr:
	default:
	}
}

// Cast multicasts a scoped payload on the app's stream. On ErrNoGroup (or a
// closed-endpoint error) the cast was not sent.
func (r *Router) Cast(app wire.AppID, gen uint32, payload []byte) error {
	r.mu.Lock()
	g := r.grps[groupKey{app, gen}]
	var ep *gcs.Endpoint
	if g != nil {
		ep = g.ep
	}
	r.mu.Unlock()
	if ep == nil {
		return ErrNoGroup
	}
	return ep.Cast(payload)
}

// SetDead records (or, with dead=false, retracts) the main group's failure
// verdict on a node for every per-group engine. Retracting a verdict that
// was never set is a cheap no-op, so the daemon may do it for every member
// of each new main view.
func (r *Router) SetDead(n wire.NodeID, dead bool) { r.verdicts.Set(n, dead) }

// Drop tears down every generation of one app's streams (app dissolved).
func (r *Router) Drop(app wire.AppID) {
	r.mu.Lock()
	for key, g := range r.grps {
		if key.app != app {
			continue
		}
		close(g.stop)
		delete(r.grps, key)
	}
	r.mu.Unlock()
}

// Close tears down all streams and, once their pumps exit, closes the
// event channel.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for key, g := range r.grps {
		close(g.stop)
		delete(r.grps, key)
	}
	r.mu.Unlock()
	close(r.stopCh)
	r.wg.Wait()
	close(r.out)
}

// runGroup is the lifecycle goroutine of one group endpoint: wait for the
// contact (members), join, announce, pump events.
func (r *Router) runGroup(g *grp, creator wire.NodeID, announce func(gcsAddr string)) {
	defer r.wg.Done()
	isCreator := creator == r.cfg.Self
	contact := ""
	if !isCreator {
		select {
		case contact = <-g.contact:
		case <-g.stop:
			return
		case <-r.stopCh:
			return
		}
	}

	var ep *gcs.Endpoint
	for {
		var err error
		ep, err = gcs.Join(gcs.Config{
			Node:           r.cfg.Self,
			Transport:      r.cfg.Transport,
			Addr:           r.cfg.GroupAddr(g.app, g.gen),
			Contact:        contact,
			HeartbeatEvery: r.cfg.HeartbeatEvery,
			FailAfter:      r.cfg.FailAfter,
			Detector:       &r.verdicts,
			Events:         &groupSink{sink: r.cfg.Events, app: g.app},
		})
		if err == nil {
			break
		}
		// The creator may be gone; if so, the main group's failure policy
		// drops this generation, which ends the retries.
		r.logf("lwg: app %d gen %d: stream join failed, retrying: %v", g.app, g.gen, err)
		select {
		case <-time.After(r.cfg.HeartbeatEvery):
		case <-g.stop:
			return
		case <-r.stopCh:
			return
		}
	}

	r.mu.Lock()
	if r.grps[groupKey{g.app, g.gen}] != g {
		// Dropped or closed while joining.
		r.mu.Unlock()
		ep.Close()
		return
	}
	g.ep = ep
	r.mu.Unlock()
	if isCreator {
		announce(ep.Addr())
	} else {
		announce("")
	}

	for {
		select {
		case ev, ok := <-ep.Events():
			if !ok {
				return
			}
			select {
			case r.out <- GroupEvent{App: g.app, Gen: g.gen, Ev: ev}:
			case <-g.stop:
				ep.Close()
				return
			case <-r.stopCh:
				ep.Close()
				return
			}
		case <-g.stop:
			ep.Close()
			return
		case <-r.stopCh:
			ep.Close()
			return
		}
	}
}
