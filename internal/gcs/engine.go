package gcs

import (
	"fmt"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/gossip"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// logKeep is how many recent sequenced messages each member retains for
// coordinator-failover retransmission.
const logKeep = 512

// hasQuorum reports whether `remaining` members out of a view of `total`
// form a strict majority — the primary-partition condition for
// crash-driven view changes. A single-member view always has quorum, and
// in a two-member view the survivor is allowed to continue (the classic
// two-node ambiguity is resolved in favour of availability, as daemons
// share a checkpoint store rather than contending for one resource).
func hasQuorum(remaining, total int) bool {
	if total <= 2 {
		return remaining >= 1
	}
	return 2*remaining > total
}

// chooseCoord elects the coordinator of a new view: the previous
// coordinator keeps the role while it survives, otherwise the lowest-id
// surviving member takes over. Sticking with the survivor (rather than
// always re-electing the lowest global id) keeps per-app group
// coordinators where their groups put them — a group whose lowest-id
// member departed, or that was created by a high-id node, still elects
// deterministically from its own view instead of thrashing the sequencer
// role on every membership change.
func chooseCoord(prev wire.NodeID, members []wire.NodeID) wire.NodeID {
	for _, m := range members { // sorted ascending
		if m == prev {
			return m
		}
	}
	return members[0]
}

// Endpoint is one member of a process group.
type Endpoint struct {
	cfg Config
	nic *vni.NIC
	evq *equeue

	cmds chan command
	stop chan struct{}
	dead chan struct{}
}

type cmdKind uint8

const (
	cmdCast cmdKind = iota + 1
	cmdSend
	cmdLeave
	cmdView
)

type command struct {
	kind    cmdKind
	to      wire.NodeID
	payload []byte
	reply   chan error
	viewOut chan View
}

// engine holds all protocol state; it is owned exclusively by the run
// goroutine, so none of it needs locking.
type engine struct {
	ep   *Endpoint
	cfg  Config
	nic  *vni.NIC
	view View
	left bool

	// delivery
	delivered  uint64
	pendingDel map[uint64]seqMsg
	log        map[uint64]seqMsg
	lastSender map[wire.NodeID]uint64 // dedup: highest delivered senderSeq

	// sending
	nextSenderSeq uint64
	pendingCasts  []seqMsg // unconfirmed own casts (Seq unset)

	// coordinator
	nextSeq uint64

	// failure detection: suspected is the members cfg.Detector called dead
	// at the last tick — the only thing removals and failover act on.
	suspected map[wire.NodeID]bool
	// fdMoved is set when the detector was handed a message or evidence
	// since the last tick: a verdict or a deadline may have moved, so the
	// engine ticks as soon as its queue is drained rather than at the timer.
	fdMoved bool
	// lastDuty is when the once-per-HeartbeatEvery duties last ran.
	lastDuty time.Time
	// announced dedups suspicion event records (per suspect, per view) so
	// the tick loop does not flood the event plane while a removal is
	// quorum-blocked.
	announced map[wire.NodeID]bool

	// failover candidate state
	syncing     bool
	syncFor     wire.NodeID // the coordinator this sync is replacing
	syncStarted time.Time
	syncResps   map[wire.NodeID]syncResp
	syncTargets map[wire.NodeID]bool

	// gap repair
	lastRetransReq time.Time
	// gap beacon: the coordinator re-advertises its highest sequenced slot
	// for a bounded window after sequencing activity, so a member that lost
	// the final kDeliver of a burst still notices the gap. lastSeqAt tracks
	// the activity window; lastBeacon rate-limits.
	lastSeqAt  time.Time
	lastBeacon time.Time
}

type syncResp struct {
	delivered uint64
	entries   []seqMsg
}

// Join creates an endpoint and joins (or creates) the group. It blocks
// until the first view is known, and returns an endpoint whose Events
// channel starts with that view.
func Join(cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	nic, err := vni.NewNIC(cfg.Transport, cfg.Addr, 0)
	if err != nil {
		return nil, err
	}
	// Sends run on the engine goroutine, which must not sleep in a dial
	// backoff while peers wait for its acks: one dial per send, and a dead
	// address fails fast for a heartbeat. The protocol's own repetition
	// (probes, re-forwards, retransmission requests) is the retry.
	nic.SetDialRetry(1, 0, cfg.HeartbeatEvery)
	ep := &Endpoint{
		cfg:  cfg,
		nic:  nic,
		evq:  newEqueue(),
		cmds: make(chan command),
		stop: make(chan struct{}),
		dead: make(chan struct{}),
	}
	eng := &engine{
		ep:         ep,
		cfg:        cfg,
		nic:        nic,
		pendingDel: make(map[uint64]seqMsg),
		log:        make(map[uint64]seqMsg),
		lastSender: make(map[wire.NodeID]uint64),
		suspected:  make(map[wire.NodeID]bool),
	}

	if cfg.Contact == "" {
		// Create a new singleton group.
		v := View{
			ID:      1,
			Coord:   cfg.Node,
			Members: []wire.NodeID{cfg.Node},
			Addrs:   map[wire.NodeID]string{cfg.Node: nic.Addr()},
		}
		eng.view = v
		eng.delivered = 1
		eng.nextSeq = 2
		cfg.Detector.SetMembers(v.Members)
		ep.evq.push(Event{Kind: EView, View: v.Clone()})
	} else if err := eng.joinExisting(); err != nil {
		nic.Close()
		ep.evq.close()
		return nil, err
	}

	go eng.run()
	return ep, nil
}

// joinExisting performs the synchronous join handshake with the contact.
func (e *engine) joinExisting() error {
	req := wire.NewWriter(16)
	req.U32(uint32(e.cfg.Node)).String(e.nic.Addr())

	deadline := time.Now().Add(50 * e.cfg.HeartbeatEvery)
	attempt := 0
	for time.Now().Before(deadline) {
		attempt++
		m := wire.Msg{Type: wire.TControl, Kind: kJoinReq, Src: wire.Rank(e.cfg.Node), Payload: req.Bytes()}
		if err := e.nic.Send(e.cfg.Contact, &m); err != nil {
			// Deliberate backoff: the contact may still be starting up;
			// retry at heartbeat pace until the join deadline.
			time.Sleep(e.cfg.HeartbeatEvery)
			continue
		}
		// Wait for the welcome; requeue-worthy traffic cannot arrive
		// before it on the coordinator connection (FIFO), and any stray
		// deliveries with seq > welcome seq are buffered by handleMsg
		// after the loop starts.
		timer := time.NewTimer(10 * e.cfg.HeartbeatEvery)
		for {
			select {
			case in := <-e.nic.Queue():
				if in.Type == wire.TControl && in.Kind == kWelcome {
					timer.Stop()
					return e.applyWelcome(in)
				}
				// Not the welcome (e.g. an early beacon); process it
				// once the engine runs. Deliveries before the welcome
				// can only have seq <= welcome seq and will be ignored,
				// so dropping anything but kDeliver here is safe; buffer
				// deliveries.
				if in.Type == wire.TControl && in.Kind == kDeliver {
					if sm, err := decodeSeqMsg(in.Payload); err == nil {
						e.pendingDel[sm.Seq] = sm
					}
				}
				continue
			case <-timer.C:
			}
			break
		}
	}
	return fmt.Errorf("%w: no welcome from %q", ErrJoin, e.cfg.Contact)
}

func (e *engine) applyWelcome(m wire.Msg) error {
	r := wire.NewReader(m.Payload)
	seq := r.U64()
	viewBytes := r.Bytes32()
	state := append([]byte(nil), r.Bytes32()...)
	if r.Err() != nil {
		return fmt.Errorf("%w: bad welcome: %v", ErrJoin, r.Err())
	}
	v, err := decodeView(viewBytes)
	if err != nil {
		return fmt.Errorf("%w: bad welcome view: %v", ErrJoin, err)
	}
	e.view = v
	e.delivered = seq
	e.cfg.Detector.SetMembers(v.Members)
	ev := Event{Kind: EView, View: v.Clone()}
	if len(state) > 0 {
		ev.State = state
	}
	e.ep.evq.push(ev)
	// Flush deliveries that raced ahead of the welcome.
	e.drainPending()
	return nil
}

// ---- public API ----

// Events returns the ordered stream of group events. The channel closes
// after Close/Leave (or after this member is excluded from the group).
func (ep *Endpoint) Events() <-chan Event { return ep.evq.out }

// Node returns this endpoint's id.
func (ep *Endpoint) Node() wire.NodeID { return ep.cfg.Node }

// Addr returns this endpoint's transport address.
func (ep *Endpoint) Addr() string { return ep.nic.Addr() }

// Cast multicasts payload to the group with total-order semantics. The
// message is also delivered back to the caller through Events.
func (ep *Endpoint) Cast(payload []byte) error {
	return ep.do(command{kind: cmdCast, payload: payload})
}

// Send delivers payload to one member (FIFO per pair, unordered relative
// to casts).
func (ep *Endpoint) Send(to wire.NodeID, payload []byte) error {
	return ep.do(command{kind: cmdSend, to: to, payload: payload})
}

// View returns the endpoint's current view.
func (ep *Endpoint) View() View {
	c := command{kind: cmdView, viewOut: make(chan View, 1), reply: make(chan error, 1)}
	select {
	case ep.cmds <- c:
		<-c.reply
		return <-c.viewOut
	case <-ep.dead:
		return View{}
	}
}

// Leave announces departure to the group and shuts the endpoint down.
func (ep *Endpoint) Leave() error {
	err := ep.do(command{kind: cmdLeave})
	ep.Close()
	return err
}

// Close tears the endpoint down without notifying the group (its Detector
// will remove it — this is how tests simulate a crash).
func (ep *Endpoint) Close() {
	select {
	case <-ep.stop:
	default:
		close(ep.stop)
	}
	<-ep.dead
}

func (ep *Endpoint) do(c command) error {
	c.reply = make(chan error, 1)
	select {
	case ep.cmds <- c:
		return <-c.reply
	case <-ep.dead:
		return ErrLeft
	}
}

// ---- engine loop ----

func (e *engine) run() {
	// wake fires when tick is next due (wakeAt): at the detector's next
	// deadline or one HeartbeatEvery after the last periodic duties,
	// whichever is first.
	wake := time.NewTimer(e.cfg.HeartbeatEvery)
	defer wake.Stop()
	var wakeAt time.Time
	defer func() {
		e.nic.Close()
		e.ep.evq.close()
		close(e.ep.dead)
	}()

	for !e.left {
		due := false
		select {
		case <-e.ep.stop:
			return
		case m := <-e.nic.Queue():
			e.handleMsg(m)
		case addr := <-e.nic.PeerDown():
			e.peerDown(addr)
		case c := <-e.ep.cmds:
			e.handleCmd(c)
		case <-wake.C:
			due = true
		}
		if !due && !e.fdMoved {
			continue
		}
		// Timers run on a drained queue. After a stall (GC, a stolen
		// timeslice, a checkpoint copy) the timer and a backlog of messages
		// are ready together, and an ack that sat in the queue must not be
		// judged missing.
		for n := len(e.nic.Queue()); n > 0 && !e.left; n-- {
			e.handleMsg(<-e.nic.Queue())
		}
		if e.left {
			return
		}
		next := e.tick()
		if !due && next.Equal(wakeAt) {
			// Most messages move no deadline, and re-arming a timer is not
			// free: it can wake another thread, which the ranks sharing
			// these cores pay for.
			continue
		}
		if !due && !wake.Stop() {
			select {
			case <-wake.C:
			default:
			}
		}
		wake.Reset(time.Until(next))
		wakeAt = next
	}
}

func (e *engine) isCoord() bool { return e.view.Coord == e.cfg.Node }

// event forwards a structured record to the configured sink. All calls run
// on the engine goroutine; the sink is non-blocking by contract.
func (e *engine) event(r evstore.Record) {
	if e.cfg.Events != nil {
		e.cfg.Events.Emit(r)
	}
}

// suspectEvent announces one suspicion, deduplicated per suspect per view.
func (e *engine) suspectEvent(n wire.NodeID) {
	if e.announced[n] {
		return
	}
	if e.announced == nil {
		e.announced = make(map[wire.NodeID]bool)
	}
	e.announced[n] = true
	role := "member"
	if n == e.view.Coord {
		role = "coord"
	}
	e.event(evstore.Ev("suspect",
		evstore.F("target", n), evstore.F("role", role),
		evstore.F("view", e.view.ID)))
}

// cast is best-effort delivery of group-protocol traffic (beacons,
// sequencer casts, sync and retransmission messages). The protocol is
// self-healing: a lost send is recovered by retransmission requests, and
// a dead destination is noticed by failure detection — the error itself
// carries no information the engine does not already extract.
func (e *engine) cast(addr string, m *wire.Msg) {
	//starfish:allow errdrop best-effort cast; retransmission and failure detection recover lost sends
	e.nic.Send(addr, m)
}

func (e *engine) handleCmd(c command) {
	switch c.kind {
	case cmdView:
		c.viewOut <- e.view.Clone()
		c.reply <- nil
	case cmdCast:
		e.nextSenderSeq++
		sm := seqMsg{Kind: dCast, Sender: e.cfg.Node, SenderSeq: e.nextSenderSeq,
			Payload: append([]byte(nil), c.payload...)}
		e.pendingCasts = append(e.pendingCasts, sm)
		e.forwardCast(sm)
		c.reply <- nil
	case cmdSend:
		addr, ok := e.view.Addrs[c.to]
		if !ok {
			c.reply <- ErrNoMember
			return
		}
		m := wire.Msg{Type: wire.TControl, Kind: kP2P, Src: wire.Rank(e.cfg.Node), Payload: c.payload}
		c.reply <- e.nic.Send(addr, &m)
	case cmdLeave:
		if e.isCoord() {
			// Sequence our own removal before going away.
			e.installViewWithout([]wire.NodeID{e.cfg.Node})
		} else if addr, ok := e.view.Addrs[e.view.Coord]; ok {
			m := wire.Msg{Type: wire.TControl, Kind: kLeave, Src: wire.Rank(e.cfg.Node)}
			e.cast(addr, &m)
		}
		e.left = true
		c.reply <- nil
	}
}

// forwardCast routes an own cast toward the sequencer.
func (e *engine) forwardCast(sm seqMsg) {
	if e.isCoord() {
		e.sequence(sm)
		return
	}
	if addr, ok := e.view.Addrs[e.view.Coord]; ok {
		m := wire.Msg{Type: wire.TControl, Kind: kMcastReq, Src: wire.Rank(e.cfg.Node),
			Payload: encodeSeqMsg(&sm)}
		e.cast(addr, &m)
	}
}

// sequence assigns the next total-order slot to sm and broadcasts it.
// Coordinator only.
func (e *engine) sequence(sm seqMsg) {
	if sm.Kind == dCast && sm.SenderSeq <= e.lastSender[sm.Sender] {
		return // duplicate (resend after failover)
	}
	sm.Seq = e.nextSeq
	e.nextSeq++
	e.lastSeqAt = time.Now() // opens the gap-beacon window
	e.broadcast(sm)
	e.deliver(sm)
}

func (e *engine) broadcast(sm seqMsg) {
	payload := encodeSeqMsg(&sm)
	for _, member := range e.view.Members {
		if member == e.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kDeliver, Src: wire.Rank(e.cfg.Node), Payload: payload}
		e.cast(e.view.Addrs[member], &m)
	}
}

// deliver applies one sequenced message locally, in order.
func (e *engine) deliver(sm seqMsg) {
	if sm.Seq != e.delivered+1 {
		if sm.Seq > e.delivered {
			e.pendingDel[sm.Seq] = sm
		}
		return
	}
	e.applyDeliver(sm)
	e.drainPending()
}

func (e *engine) drainPending() {
	for {
		next, ok := e.pendingDel[e.delivered+1]
		if !ok {
			return
		}
		delete(e.pendingDel, e.delivered+1)
		e.applyDeliver(next)
	}
}

func (e *engine) applyDeliver(sm seqMsg) {
	e.delivered = sm.Seq
	e.log[sm.Seq] = sm
	delete(e.log, sm.Seq-logKeep)

	switch sm.Kind {
	case dCast:
		if sm.SenderSeq > e.lastSender[sm.Sender] {
			e.lastSender[sm.Sender] = sm.SenderSeq
		}
		if sm.Sender == e.cfg.Node {
			e.confirmPending(sm.SenderSeq)
		}
		e.ep.evq.push(Event{Kind: ECast, From: sm.Sender, Payload: sm.Payload})
	case dView:
		v, err := decodeView(sm.Payload)
		if err != nil {
			return
		}
		e.applyView(v)
	}
}

func (e *engine) confirmPending(senderSeq uint64) {
	keep := e.pendingCasts[:0]
	for _, p := range e.pendingCasts {
		if p.SenderSeq > senderSeq {
			keep = append(keep, p)
		}
	}
	e.pendingCasts = keep
}

func (e *engine) applyView(v View) {
	e.view = v
	// The detector keeps its verdicts on members that stay (a join sequenced
	// while a removal is still quorum-blocked must not clear it); the next
	// tick re-reads them.
	e.cfg.Detector.SetMembers(v.Members)
	e.announced = nil
	e.syncing = false
	if e.isCoord() && e.nextSeq <= e.delivered {
		e.nextSeq = e.delivered + 1
	}
	if !v.Contains(e.cfg.Node) {
		// Excluded (false suspicion or forced removal): shut down.
		e.event(evstore.Ev("excluded", evstore.F("view", v.ID)))
		e.left = true
		return
	}
	e.event(evstore.Ev("view-change",
		evstore.F("view", v.ID), evstore.F("coord", v.Coord),
		evstore.F("members", evstore.List(v.Members))))
	e.ep.evq.push(Event{Kind: EView, View: v.Clone()})
	// Re-route unconfirmed casts to the (possibly new) coordinator.
	for _, p := range e.pendingCasts {
		e.forwardCast(p)
	}
}

// ---- message handling ----

func (e *engine) handleMsg(m wire.Msg) {
	if m.Type != wire.TControl {
		m.Release() // not bus traffic; recycle the pooled payload
		return
	}
	from := wire.NodeID(m.Src)
	switch m.Kind {
	case kBeacon:
		if from == e.view.Coord && !e.isCoord() && len(m.Payload) >= 8 {
			if last := wire.NewReader(m.Payload).U64(); last > e.delivered {
				e.requestRetrans()
			}
		}
	case kRetransReq:
		e.handleRetransReq(m)
	case kDeliver:
		sm, err := decodeSeqMsg(m.Payload)
		if err == nil {
			e.deliver(sm)
		}
	case kMcastReq:
		if !e.isCoord() {
			// Stale routing: forward to the real coordinator.
			if addr, ok := e.view.Addrs[e.view.Coord]; ok && e.view.Coord != e.cfg.Node {
				e.cast(addr, &m)
			}
			return
		}
		if !e.view.Contains(from) {
			return
		}
		sm, err := decodeSeqMsg(m.Payload)
		if err == nil {
			e.sequence(sm)
		}
	case kJoinReq:
		e.handleJoin(m)
	case kLeave:
		if e.isCoord() && e.view.Contains(from) {
			e.installViewWithout([]wire.NodeID{from})
		}
	case kP2P:
		e.ep.evq.push(Event{Kind: ESend, From: from, Payload: append([]byte(nil), m.Payload...)})
		m.Release() // copied above; the pooled buffer can go back

	case kSyncReq:
		e.handleSyncReq(m)
	case kSyncResp:
		e.handleSyncResp(m)

	case kGossip:
		if outs, err := e.cfg.Detector.Handle(time.Now(), m.Payload); err == nil {
			e.sendGossip(outs)
		}
		e.fdMoved = true
		m.Release() // the detector decodes into its own structures
	}
}

// abortSync cancels an in-progress failover election without installing a
// view; late kSyncResp messages are ignored because syncTargets is cleared.
func (e *engine) abortSync() {
	if e.syncing {
		e.event(evstore.Ev("election-abort",
			evstore.F("for", e.syncFor), evstore.F("view", e.view.ID)))
	}
	e.syncing = false
	e.syncResps = nil
	e.syncTargets = nil
}

func (e *engine) handleJoin(m wire.Msg) {
	r := wire.NewReader(m.Payload)
	node := wire.NodeID(r.U32())
	addr := r.String()
	if r.Err() != nil {
		return
	}
	if !e.isCoord() {
		if caddr, ok := e.view.Addrs[e.view.Coord]; ok {
			e.cast(caddr, &m)
		}
		return
	}
	if e.view.Contains(node) {
		// Duplicate join request (retry): resend welcome with the current
		// view so the joiner can finish its handshake.
		e.sendWelcome(node, addr, e.delivered)
		return
	}
	// Build the next view including the joiner.
	nv := e.view.Clone()
	nv.ID++
	nv.Members = append(nv.Members, node)
	sortMembers(nv.Members)
	nv.Addrs[node] = addr
	nv.Coord = chooseCoord(e.view.Coord, nv.Members)

	seq := e.nextSeq // the slot the view message will take
	sm := seqMsg{Kind: dView, Sender: e.cfg.Node, Payload: encodeView(&nv)}
	// Welcome first (FIFO guarantees it precedes any later deliveries on
	// the same connection).
	e.sendWelcomeView(node, addr, seq, &nv)
	e.sequence(sm)
}

func (e *engine) sendWelcome(node wire.NodeID, addr string, seq uint64) {
	v := e.view
	e.sendWelcomeView(node, addr, seq, &v)
}

func (e *engine) sendWelcomeView(node wire.NodeID, addr string, seq uint64, v *View) {
	var state []byte
	if e.cfg.StateProvider != nil {
		state = e.cfg.StateProvider()
	}
	w := wire.NewWriter(64 + len(state))
	w.U64(seq).Bytes32(encodeView(v)).Bytes32(state)
	m := wire.Msg{Type: wire.TControl, Kind: kWelcome, Src: wire.Rank(e.cfg.Node), Payload: w.Bytes()}
	e.cast(addr, &m)
}

// installViewWithout sequences a new view that excludes the given members.
// Coordinator only.
func (e *engine) installViewWithout(gone []wire.NodeID) {
	goneSet := map[wire.NodeID]bool{}
	for _, g := range gone {
		goneSet[g] = true
	}
	nv := View{ID: e.view.ID + 1, Addrs: map[wire.NodeID]string{}}
	for _, member := range e.view.Members {
		if !goneSet[member] {
			nv.Members = append(nv.Members, member)
			nv.Addrs[member] = e.view.Addrs[member]
		}
	}
	if len(nv.Members) == 0 {
		e.left = true
		return
	}
	sortMembers(nv.Members)
	nv.Coord = chooseCoord(e.view.Coord, nv.Members)
	sm := seqMsg{Kind: dView, Sender: e.cfg.Node, Payload: encodeView(&nv)}
	e.sequence(sm)
}

// ---- timers ----

// tick runs the engine's timers: drive the detector, read its verdicts and
// act on them — the coordinator removes dead members, the lowest survivor
// fails over from a dead coordinator — then, once per HeartbeatEvery, do the
// periodic duties. It returns when it is next due.
func (e *engine) tick() time.Time {
	now := time.Now()
	fd := e.cfg.Detector
	e.fdMoved = false
	envs, next := fd.Tick(now)
	e.sendGossip(envs)
	clear(e.suspected)
	var gone []wire.NodeID
	for _, member := range e.view.Members {
		if member != e.cfg.Node && fd.Dead(member) {
			e.suspected[member] = true
			gone = append(gone, member)
			e.suspectEvent(member)
		}
	}
	// The verdict that started a failover election was withdrawn (a gossip
	// refutation, a retracted entry): completing the sync would install a
	// spurious view that excludes a live coordinator.
	if e.syncing && !e.suspected[e.syncFor] {
		e.abortSync()
	}
	switch {
	case e.isCoord():
		if len(gone) > 0 && e.mayExclude(len(e.view.Members)-len(gone)) {
			e.installViewWithout(gone)
		}
	case !e.syncing && e.suspected[e.view.Coord] && e.lowestSurvivor() == e.cfg.Node:
		// The lowest-id survivor runs the failover; the others wait for its
		// view, or for the detector to call that candidate dead as well.
		e.startSync()
	}

	if now.Sub(e.lastDuty) >= e.cfg.HeartbeatEvery {
		e.lastDuty = now
		e.duty(now)
	}
	due := e.lastDuty.Add(e.cfg.HeartbeatEvery)
	if !next.IsZero() && next.Before(due) {
		due = next
	}
	return due
}

// duty is what the engine owes the group once per HeartbeatEvery whatever
// the detector says: the coordinator beacons; a member re-forwards its
// unconfirmed casts, repairs its stream and closes an election that not
// every survivor answered.
func (e *engine) duty(now time.Time) {
	e.beacon(now)
	if e.isCoord() {
		return
	}
	for _, p := range e.pendingCasts {
		e.forwardCast(p)
	}
	// A buffered out-of-order delivery means an earlier kDeliver was lost:
	// ask the coordinator to repair the gap from its retransmission log.
	if !e.syncing && len(e.pendingDel) > 0 && !e.suspected[e.view.Coord] {
		e.requestRetrans()
	}
	if e.syncing && now.Sub(e.syncStarted) > e.cfg.FailAfter {
		// Non-responders are dropped; finish with what we have.
		e.finishSync()
	}
}

// peerDown hands the detector the transport's evidence that a member's
// connection closed from the far side.
func (e *engine) peerDown(addr string) {
	for _, member := range e.view.Members {
		if member != e.cfg.Node && e.view.Addrs[member] == addr {
			e.sendGossip(e.cfg.Detector.Probe(time.Now(), member))
			e.fdMoved = true
			return
		}
	}
}

// mayExclude is the primary-partition rule for crash-driven view changes:
// the `remaining` members must be a strict majority of the current view, or
// this side might be the partitioned minority (mutual false suspicion under
// load) and installing the view would split the brain. A blocked removal
// waits until the verdicts clear or enough members remain. Verdicts agreed
// outside the group need no second vote.
func (e *engine) mayExclude(remaining int) bool {
	return e.cfg.Detector.Agreed() || hasQuorum(remaining, len(e.view.Members))
}

// beacon re-advertises the coordinator's highest sequenced slot for a
// bounded window after sequencing activity; without it a member that lost
// the *final* kDeliver of a burst would never notice the gap. Outside the
// activity window the beacon is silent, keeping the idle control-plane load
// O(1).
func (e *engine) beacon(now time.Time) {
	if !e.isCoord() || len(e.view.Members) <= 1 {
		return
	}
	if e.lastSeqAt.IsZero() || now.Sub(e.lastSeqAt) > 2*e.cfg.FailAfter {
		return
	}
	if now.Sub(e.lastBeacon) < e.cfg.FailAfter/4 {
		return
	}
	e.lastBeacon = now
	horizon := wire.NewWriter(8).U64(e.nextSeq - 1).Bytes()
	for _, member := range e.view.Members {
		if member == e.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kBeacon, Src: wire.Rank(e.cfg.Node), Payload: horizon}
		e.cast(e.view.Addrs[member], &m)
	}
}

// sendGossip transmits detector envelopes over the group transport,
// resolving member ids through the current view.
func (e *engine) sendGossip(envs []gossip.Envelope) {
	for _, env := range envs {
		addr, ok := e.view.Addrs[env.To]
		if !ok {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kGossip, Src: wire.Rank(e.cfg.Node), Payload: env.Payload}
		e.cast(addr, &m)
	}
}

func (e *engine) lowestSurvivor() wire.NodeID {
	for _, member := range e.view.Members { // sorted ascending
		if !e.suspected[member] {
			return member
		}
	}
	return e.cfg.Node
}

// ---- failover ----

func (e *engine) startSync() {
	e.syncing = true
	e.syncFor = e.view.Coord
	e.event(evstore.Ev("election-start",
		evstore.F("for", e.syncFor), evstore.F("view", e.view.ID)))
	e.syncStarted = time.Now()
	e.syncResps = make(map[wire.NodeID]syncResp)
	e.syncTargets = make(map[wire.NodeID]bool)
	req := wire.Msg{Type: wire.TControl, Kind: kSyncReq, Src: wire.Rank(e.cfg.Node)}
	for _, member := range e.view.Members {
		if member == e.cfg.Node || e.suspected[member] {
			continue
		}
		e.syncTargets[member] = true
		e.cast(e.view.Addrs[member], &req)
	}
	if len(e.syncTargets) == 0 {
		e.finishSync()
	}
}

func (e *engine) handleSyncReq(m wire.Msg) {
	from := wire.NodeID(m.Src)
	if !e.view.Contains(from) {
		return
	}
	w := wire.NewWriter(256)
	w.U64(e.delivered)
	// Send the retained suffix of the delivery log.
	var seqs []uint64
	for s := range e.log {
		seqs = append(seqs, s)
	}
	w.U32(uint32(len(seqs)))
	for _, s := range seqs {
		sm := e.log[s]
		w.Bytes32(encodeSeqMsg(&sm))
	}
	resp := wire.Msg{Type: wire.TControl, Kind: kSyncResp, Src: wire.Rank(e.cfg.Node), Payload: w.Bytes()}
	if addr, ok := e.view.Addrs[from]; ok {
		e.cast(addr, &resp)
	}
}

func (e *engine) handleSyncResp(m wire.Msg) {
	if !e.syncing {
		return
	}
	from := wire.NodeID(m.Src)
	if !e.syncTargets[from] {
		return
	}
	r := wire.NewReader(m.Payload)
	sr := syncResp{delivered: r.U64()}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		if sm, err := decodeSeqMsg(r.Bytes32()); err == nil {
			sr.entries = append(sr.entries, sm)
		}
	}
	if r.Err() != nil {
		return
	}
	e.syncResps[from] = sr
	if len(e.syncResps) == len(e.syncTargets) {
		e.finishSync()
	}
}

// finishSync completes the failover: the candidate merges everyone's
// delivered suffix, re-broadcasts anything not seen everywhere, assumes the
// sequencer role, and installs the post-failure view.
func (e *engine) finishSync() {
	e.syncing = false
	responders := e.syncResps
	e.syncResps = nil
	e.syncTargets = nil

	// Primary-partition rule: the candidate may only take over if it and
	// its responders form a strict majority of the current view. A
	// minority side (real partition or false suspicion) waits — the
	// detector clears transient suspicions, and a later tick retries the
	// sync if they persist.
	if !e.mayExclude(len(responders) + 1) {
		e.event(evstore.Ev("election-stalled",
			evstore.F("for", e.syncFor), evstore.F("view", e.view.ID),
			evstore.F("responders", len(responders))))
		return
	}
	e.event(evstore.Ev("election-win",
		evstore.F("for", e.syncFor), evstore.F("view", e.view.ID),
		evstore.F("responders", len(responders))))

	// Merge all known sequenced messages.
	all := make(map[uint64]seqMsg)
	for s, sm := range e.log {
		all[s] = sm
	}
	maxSeq := e.delivered
	minDelivered := e.delivered
	for _, sr := range responders {
		if sr.delivered > maxSeq {
			maxSeq = sr.delivered
		}
		if sr.delivered < minDelivered {
			minDelivered = sr.delivered
		}
		for _, sm := range sr.entries {
			all[sm.Seq] = sm
		}
	}

	// Catch up locally.
	for s := e.delivered + 1; s <= maxSeq; s++ {
		if sm, ok := all[s]; ok {
			e.deliver(sm)
		}
	}
	// It is possible the old coordinator's last view removed us; then we
	// are no longer entitled to lead.
	if e.left || !e.view.Contains(e.cfg.Node) {
		return
	}

	// Re-broadcast the suffix so every survivor reaches maxSeq (receivers
	// drop already-delivered seqs).
	survivors := []wire.NodeID{e.cfg.Node}
	for n := range responders {
		survivors = append(survivors, n)
	}
	for s := minDelivered + 1; s <= maxSeq; s++ {
		sm, ok := all[s]
		if !ok {
			continue
		}
		payload := encodeSeqMsg(&sm)
		for _, n := range survivors {
			if n == e.cfg.Node {
				continue
			}
			if addr, ok := e.view.Addrs[n]; ok {
				out := wire.Msg{Type: wire.TControl, Kind: kDeliver, Src: wire.Rank(e.cfg.Node), Payload: payload}
				e.cast(addr, &out)
			}
		}
	}

	// Assume the sequencer role and install the new view. Keep only
	// members that are (a) in the current view and (b) responded or are
	// self.
	e.nextSeq = e.delivered + 1
	respSet := map[wire.NodeID]bool{e.cfg.Node: true}
	for n := range responders {
		respSet[n] = true
	}
	var gone []wire.NodeID
	for _, member := range e.view.Members {
		if !respSet[member] {
			gone = append(gone, member)
		}
	}
	// Temporarily act as coordinator to sequence the view even though the
	// current view names the dead node: receivers accept deliveries by
	// seq, not by source identity.
	nv := View{ID: e.view.ID + 1, Addrs: map[wire.NodeID]string{}}
	for _, member := range e.view.Members {
		skip := false
		for _, g := range gone {
			if member == g {
				skip = true
				break
			}
		}
		if !skip {
			nv.Members = append(nv.Members, member)
			nv.Addrs[member] = e.view.Addrs[member]
		}
	}
	sortMembers(nv.Members)
	if len(nv.Members) == 0 {
		e.left = true
		return
	}
	// The candidate that ran the sync self-elects: it already holds the
	// merged suffix, so handing the sequencer role elsewhere would only
	// force an immediate second view change.
	nv.Coord = chooseCoord(e.cfg.Node, nv.Members)
	sm := seqMsg{Seq: e.nextSeq, Kind: dView, Sender: e.cfg.Node, Payload: encodeView(&nv)}
	e.nextSeq++
	payload := encodeSeqMsg(&sm)
	for _, n := range survivors {
		if n == e.cfg.Node {
			continue
		}
		if addr, ok := e.view.Addrs[n]; ok {
			out := wire.Msg{Type: wire.TControl, Kind: kDeliver, Src: wire.Rank(e.cfg.Node), Payload: payload}
			e.cast(addr, &out)
		}
	}
	e.deliver(sm)
}

// ---- gap repair ----

// requestRetrans asks the coordinator to resend every sequenced message
// above our delivered horizon, rate-limited to one request per tick
// interval so a long outage does not flood the sequencer.
func (e *engine) requestRetrans() {
	now := time.Now()
	if now.Sub(e.lastRetransReq) < e.cfg.HeartbeatEvery {
		return
	}
	e.lastRetransReq = now
	addr, ok := e.view.Addrs[e.view.Coord]
	if !ok || e.isCoord() {
		return
	}
	m := wire.Msg{Type: wire.TControl, Kind: kRetransReq, Src: wire.Rank(e.cfg.Node),
		Payload: wire.NewWriter(8).U64(e.delivered).Bytes()}
	e.cast(addr, &m)
}

// handleRetransReq resends log entries above the requester's delivered
// horizon, at most retransBatch per request. Coordinator only.
func (e *engine) handleRetransReq(m wire.Msg) {
	from := wire.NodeID(m.Src)
	if !e.isCoord() || !e.view.Contains(from) {
		return
	}
	r := wire.NewReader(m.Payload)
	horizon := r.U64()
	if r.Err() != nil {
		return
	}
	addr, ok := e.view.Addrs[from]
	if !ok {
		return
	}
	sent := 0
	for s := horizon + 1; s <= e.delivered && sent < retransBatch; s++ {
		sm, ok := e.log[s]
		if !ok {
			continue
		}
		out := wire.Msg{Type: wire.TControl, Kind: kDeliver, Src: wire.Rank(e.cfg.Node),
			Payload: encodeSeqMsg(&sm)}
		e.cast(addr, &out)
		sent++
	}
}
