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

// ErrNoGroup is returned by Cast when this node has no joined per-group
// stream for the app (yet); the caller falls back to the main-group path.
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
	// a group's formation timeout is 50 HeartbeatEvery. The daemon passes
	// its own resolved values.
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
	// contact receives the creator's endpoint address (from its OpJoin
	// meta on the main stream); capacity 1, first value wins.
	contact chan string
	stop    chan struct{}
	// ep is set once this node's endpoint has joined (guarded by the
	// router mutex).
	ep *gcs.Endpoint
}

// Router runs one per-application gcs stream per (app, generation) this
// node hosts: scoped casts for disjoint apps ride independent sequencers
// instead of all ordering through the main group. Join/leave stay
// anchored in the main group — the Manager remains the membership
// authority — and so do failure verdicts: SetDead mirrors the main group's
// view changes into one gcs.Verdicts that every per-group engine reads as
// its Detector.
//
// Formation handshake, per group: the deterministic creator (chosen from
// the group's sorted member set) joins first and only then announces its
// OpJoin on the main stream, carrying its endpoint address as the
// contact. The other members join through that contact and only then
// announce their own OpJoins. Because the daemon gates application start
// on *all* members' OpJoins, every member's stream endpoint exists before
// the first scoped cast — each cast travels exactly one path (group
// stream, or the main-group fallback when no stream formed), never both.
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
// announce is called exactly once the node is ready to publish its OpJoin
// on the main stream: with the endpoint address when this node created
// the stream, with the empty string otherwise (members and fallbacks).
// It runs on a router goroutine, after the local join completed, so an
// OpJoin on the main stream implies the sender's stream endpoint exists.
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

// Cast multicasts a scoped payload on the app's stream. ErrNoGroup (or a
// closed-endpoint error) tells the caller to fall back to the main-group
// OpCast path; the cast was not sent.
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
	announced := false
	if !isCreator {
		timer := time.NewTimer(50 * r.cfg.HeartbeatEvery)
		select {
		case contact = <-g.contact:
			timer.Stop()
		case <-timer.C:
			// The creator never announced (it likely crashed mid-formation,
			// which the main group's failure policy will handle). Announce
			// without a stream so membership can still form; casts fall
			// back to the main-group path on this node. If the contact
			// arrives late we still join below.
			r.logf("lwg: app %d gen %d: no contact from creator %d, falling back", g.app, g.gen, creator)
			announce("")
			announced = true
			select {
			case contact = <-g.contact:
			case <-g.stop:
				return
			case <-r.stopCh:
				return
			}
		case <-g.stop:
			return
		case <-r.stopCh:
			return
		}
	}

	ep, err := gcs.Join(gcs.Config{
		Node:           r.cfg.Self,
		Transport:      r.cfg.Transport,
		Addr:           r.cfg.GroupAddr(g.app, g.gen),
		Contact:        contact,
		HeartbeatEvery: r.cfg.HeartbeatEvery,
		FailAfter:      r.cfg.FailAfter,
		Detector:       &r.verdicts,
		Events:         &groupSink{sink: r.cfg.Events, app: g.app},
	})
	if err != nil {
		r.logf("lwg: app %d gen %d: stream join failed: %v", g.app, g.gen, err)
		if !announced {
			announce("")
		}
		return
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
	if !announced {
		if isCreator {
			announce(ep.Addr())
		} else {
			announce("")
		}
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
