// Package gossip implements a SWIM-style gossip failure detector: the
// replacement for the all-to-coordinator heartbeats that capped the main
// Starfish group at tens of nodes. Each protocol round a member pings one
// peer chosen from a shuffled ring; a peer that misses the direct ack is
// probed indirectly through k proxies (ping-req), and only when both paths
// stay silent is it marked suspect. Suspicion is a rumor, not a verdict: it
// is piggybacked on subsequent messages together with an incarnation
// number, and the accused node refutes it by re-announcing itself alive at
// a higher incarnation. A suspect that stays unrefuted for SuspectAfter is
// confirmed dead. Per round every member sends O(1) messages regardless of
// group size — the property that lets failure detection scale where
// heartbeat fan-in cannot.
//
// The Detector is a pure state machine: it never reads the wall clock,
// spawns no goroutines and owns no sockets. The caller (the gcs engine
// loop, or a virtual-time benchmark) drives it with Tick/Handle, passing
// `now` explicitly, and transmits the Envelopes it returns. That makes the
// protocol deterministic under a seed and benchmarkable at thousands of
// simulated nodes without wall-clock sleeping.
//
//starfish:deterministic
package gossip

import (
	"fmt"
	"sort"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/wire"
)

// Status is a member's health as seen by one detector.
type Status uint8

// Member states.
const (
	Alive Status = iota + 1
	Suspect
	Dead
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("gossip.Status(%d)", uint8(s))
	}
}

// Params tunes the protocol.
type Params struct {
	// ProbeEvery is the protocol round length: one direct ping is sent per
	// round (default 25ms).
	ProbeEvery time.Duration
	// ProbeTimeout is how long each probe stage (direct ping, then the
	// indirect ping-req fan-out) may stay unanswered before escalating
	// (default ProbeEvery).
	ProbeTimeout time.Duration
	// SuspectAfter is how long a suspicion may stay unrefuted before the
	// member is confirmed dead (default 8 rounds).
	SuspectAfter time.Duration
	// IndirectFanout is k, the number of proxies a failed direct probe is
	// retried through (default 3).
	IndirectFanout int
	// MaxPiggyback bounds the membership updates carried per message
	// (default 8).
	MaxPiggyback int
}

func (p Params) withDefaults() Params {
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = 25 * time.Millisecond
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = p.ProbeEvery
	}
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 8 * p.ProbeEvery
	}
	if p.IndirectFanout <= 0 {
		p.IndirectFanout = 3
	}
	if p.MaxPiggyback <= 0 {
		p.MaxPiggyback = 8
	}
	return p
}

// Config assembles one detector.
type Config struct {
	// Self is this member's id; it never appears in the probe ring.
	Self wire.NodeID
	// Seed makes probe-target and proxy selection deterministic.
	Seed uint64
	Params
	// Events optionally receives ping-timeout / suspect / refute /
	// confirm-dead records (the daemon passes its store's "gossip" emitter).
	Events evstore.Sink
}

// Envelope is one outbound protocol message; the caller resolves the
// destination id to a transport address.
type Envelope struct {
	To      wire.NodeID
	Payload []byte
}

// Stats counts protocol work for load measurement.
type Stats struct {
	// Rounds is the number of protocol rounds started.
	Rounds uint64
	// Sent is the number of protocol messages emitted (pings, acks,
	// ping-reqs — piggybacked updates ride for free).
	Sent uint64
}

// Update is one piggybacked membership rumor.
type Update struct {
	Node   wire.NodeID
	Status Status
	Inc    uint32
}

// Message kinds.
const (
	mPing    uint8 = 1
	mAck     uint8 = 2
	mPingReq uint8 = 3
)

// Message is the decoded wire form of one protocol message.
type Message struct {
	Kind uint8
	From wire.NodeID
	// Target is the node a ping-req asks the proxy to probe.
	Target wire.NodeID
	// Origin is the original prober of a proxied ping: the proxy stamps it
	// on the ping, the target echoes it on the ack, and the proxy relays
	// the ack back to it. Zero on direct probes.
	Origin wire.NodeID
	// Seq correlates acks with the probe (always the origin's sequence).
	Seq     uint64
	Updates []Update
}

// EncodeMessage serializes a protocol message.
func EncodeMessage(m *Message) []byte {
	w := wire.NewWriter(16 + 9*len(m.Updates))
	w.U8(m.Kind).U32(uint32(m.From)).U32(uint32(m.Target)).U32(uint32(m.Origin)).U64(m.Seq)
	w.U8(uint8(len(m.Updates)))
	for _, u := range m.Updates {
		w.U32(uint32(u.Node)).U8(uint8(u.Status)).U32(u.Inc)
	}
	return w.Bytes()
}

// DecodeMessage parses a protocol message.
func DecodeMessage(b []byte) (Message, error) {
	r := wire.NewReader(b)
	m := Message{
		Kind:   r.U8(),
		From:   wire.NodeID(r.U32()),
		Target: wire.NodeID(r.U32()),
		Origin: wire.NodeID(r.U32()),
		Seq:    r.U64(),
	}
	n := r.U8()
	for i := uint8(0); i < n && r.Err() == nil; i++ {
		m.Updates = append(m.Updates, Update{
			Node:   wire.NodeID(r.U32()),
			Status: Status(r.U8()),
			Inc:    r.U32(),
		})
	}
	if r.Err() != nil {
		return Message{}, r.Err()
	}
	if m.Kind < mPing || m.Kind > mPingReq {
		return Message{}, fmt.Errorf("gossip: bad message kind %d", m.Kind)
	}
	return m, nil
}

// member is one peer's tracked state.
type member struct {
	status Status
	inc    uint32
	// suspectAt is the local time suspicion (first- or second-hand) began;
	// the dead verdict fires SuspectAfter later.
	suspectAt time.Time
}

// probe is one outstanding liveness check.
type probe struct {
	target wire.NodeID
	seq    uint64
	sentAt time.Time
	// indirectAt is when the ping-req fan-out went out (zero while the
	// direct ping is still in flight).
	indirectAt time.Time
}

// rumor is one update queued for piggybacking; it is retransmitted a
// logarithmic number of times for epidemic spread, then dropped.
type rumor struct {
	u     Update
	sends int
}

// Detector is one member's view of the group. It is NOT safe for concurrent
// use: drive it from a single goroutine.
type Detector struct {
	cfg     Config
	members map[wire.NodeID]*member
	// ring is the shuffled probe order; a full pass reshuffles, giving the
	// bounded worst-case detection time of round-robin randomized probing.
	ring    []wire.NodeID
	ringPos int

	selfInc   uint32
	nextSeq   uint64
	probes    []probe
	rumors    []*rumor
	lastRound time.Time
	rng       uint64
	stats     Stats
}

// New creates a detector with an empty membership.
func New(cfg Config) *Detector {
	cfg.Params = cfg.Params.withDefaults()
	return &Detector{
		cfg:     cfg,
		members: make(map[wire.NodeID]*member),
		rng:     cfg.Seed*0x9e3779b97f4a7c15 + uint64(cfg.Self) + 1,
	}
}

// rand is a splitmix64 step: deterministic under the seed, no global state.
func (d *Detector) rand() uint64 {
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// SetMembers reconciles the tracked peers with an externally agreed
// membership (the gcs view): new peers start alive, departed peers are
// forgotten, self is ignored. Rumors about departed peers are dropped.
func (d *Detector) SetMembers(ids []wire.NodeID) {
	want := make(map[wire.NodeID]bool, len(ids))
	for _, id := range ids {
		if id != d.cfg.Self {
			want[id] = true
		}
	}
	changed := false
	for id := range d.members {
		if !want[id] {
			delete(d.members, id)
			changed = true
		}
	}
	for id := range want {
		if d.members[id] == nil {
			d.members[id] = &member{status: Alive}
			changed = true
		}
	}
	if !changed {
		return
	}
	keep := d.rumors[:0]
	for _, ru := range d.rumors {
		if ru.u.Node == d.cfg.Self || d.members[ru.u.Node] != nil {
			keep = append(keep, ru)
		}
	}
	d.rumors = keep
	var live []probe
	for _, p := range d.probes {
		if d.members[p.target] != nil {
			live = append(live, p)
		}
	}
	d.probes = live
	d.reshuffle()
}

func (d *Detector) reshuffle() {
	d.ring = d.ring[:0]
	for id := range d.members {
		d.ring = append(d.ring, id)
	}
	// Sort before shuffling: the Fisher-Yates below is seeded, so starting
	// from a canonical order keeps the permutation deterministic (map
	// iteration order would otherwise leak in).
	sort.Slice(d.ring, func(i, j int) bool { return d.ring[i] < d.ring[j] })
	for i := len(d.ring) - 1; i > 0; i-- {
		j := int(d.rand() % uint64(i+1))
		d.ring[i], d.ring[j] = d.ring[j], d.ring[i]
	}
	d.ringPos = 0
}

// Status returns the tracked state of one peer (Alive also for unknown ids:
// membership is the caller's authority, not the detector's).
func (d *Detector) Status(n wire.NodeID) Status {
	if m := d.members[n]; m != nil {
		return m.status
	}
	return Alive
}

// Dead reports whether the peer is confirmed dead. A merely Suspect peer may
// still refute itself, so group membership acts on this verdict only.
func (d *Detector) Dead(n wire.NodeID) bool { return d.Status(n) == Dead }

// Agreed reports false: a SWIM verdict is this node's own conclusion, so a
// group acting on it keeps its quorum rule (see gcs.Detector).
func (*Detector) Agreed() bool { return false }

// Stats returns cumulative protocol-load counters.
func (d *Detector) Stats() Stats { return d.stats }

func (d *Detector) event(r evstore.Record) {
	if d.cfg.Events != nil {
		d.cfg.Events.Emit(r)
	}
}

// maxRumorSends is the per-rumor retransmission budget: c*log2(n), the
// classic epidemic-dissemination bound.
func (d *Detector) maxRumorSends() int {
	n := len(d.members) + 2
	bits := 0
	for v := n; v > 0; v >>= 1 {
		bits++
	}
	return 3 * bits
}

// queueRumor replaces any queued update about the same node (newer
// information supersedes) and resets its retransmission budget.
func (d *Detector) queueRumor(u Update) {
	for _, ru := range d.rumors {
		if ru.u.Node == u.Node {
			ru.u = u
			ru.sends = 0
			return
		}
	}
	d.rumors = append(d.rumors, &rumor{u: u})
}

// piggyback selects up to MaxPiggyback least-sent rumors and charges their
// budgets, dropping exhausted ones.
func (d *Detector) piggyback() []Update {
	limit := d.maxRumorSends()
	keep := d.rumors[:0]
	for _, ru := range d.rumors {
		if ru.sends < limit {
			keep = append(keep, ru)
		}
	}
	d.rumors = keep
	if len(d.rumors) == 0 {
		return nil
	}
	// Selection sort of the least-sent prefix; rumor queues are tiny.
	out := make([]Update, 0, d.cfg.MaxPiggyback)
	for i := 0; i < len(d.rumors) && len(out) < d.cfg.MaxPiggyback; i++ {
		min := i
		for j := i + 1; j < len(d.rumors); j++ {
			if d.rumors[j].sends < d.rumors[min].sends {
				min = j
			}
		}
		d.rumors[i], d.rumors[min] = d.rumors[min], d.rumors[i]
		d.rumors[i].sends++
		out = append(out, d.rumors[i].u)
	}
	return out
}

func (d *Detector) send(to wire.NodeID, m Message) Envelope {
	m.From = d.cfg.Self
	m.Updates = append(m.Updates, d.piggyback()...)
	d.stats.Sent++
	return Envelope{To: to, Payload: EncodeMessage(&m)}
}

// Tick advances timers: it starts a protocol round when due, escalates
// unanswered probes to ping-req then suspicion, and confirms unrefuted
// suspects dead. Call it at least once per ProbeTimeout.
func (d *Detector) Tick(now time.Time) []Envelope {
	var out []Envelope

	// Escalate outstanding probes.
	keep := d.probes[:0]
	for _, p := range d.probes {
		m := d.members[p.target]
		if m == nil {
			continue
		}
		switch {
		case p.indirectAt.IsZero() && now.Sub(p.sentAt) >= d.cfg.ProbeTimeout:
			d.event(evstore.Ev("ping-timeout", evstore.F("target", p.target)))
			for _, proxy := range d.pickProxies(p.target) {
				out = append(out, d.send(proxy, Message{Kind: mPingReq, Target: p.target, Seq: p.seq}))
			}
			p.indirectAt = now
			keep = append(keep, p)
		case !p.indirectAt.IsZero() && now.Sub(p.indirectAt) >= d.cfg.ProbeTimeout:
			d.suspect(p.target, m, m.inc, now)
		default:
			keep = append(keep, p)
		}
	}
	d.probes = keep

	// Start a new round when due.
	if d.lastRound.IsZero() || now.Sub(d.lastRound) >= d.cfg.ProbeEvery {
		d.lastRound = now
		d.stats.Rounds++
		if t, ok := d.nextTarget(); ok {
			d.nextSeq++
			d.probes = append(d.probes, probe{target: t, seq: d.nextSeq, sentAt: now})
			out = append(out, d.send(t, Message{Kind: mPing, Seq: d.nextSeq}))
		}
	}

	// Confirm long-unrefuted suspects dead (sorted: rumor order reaches
	// the wire, and determinism is part of the contract).
	var expired []wire.NodeID
	for id, m := range d.members {
		if m.status == Suspect && now.Sub(m.suspectAt) >= d.cfg.SuspectAfter {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		d.confirmDead(id, d.members[id], d.members[id].inc)
	}
	return out
}

// nextTarget walks the shuffled ring, skipping confirmed-dead peers and
// peers already under probe.
func (d *Detector) nextTarget() (wire.NodeID, bool) {
	probing := make(map[wire.NodeID]bool, len(d.probes))
	for _, p := range d.probes {
		probing[p.target] = true
	}
	for tries := 0; tries < len(d.ring); tries++ {
		if d.ringPos >= len(d.ring) {
			d.reshuffle()
			if len(d.ring) == 0 {
				return 0, false
			}
		}
		id := d.ring[d.ringPos]
		d.ringPos++
		m := d.members[id]
		if m == nil || m.status == Dead || probing[id] {
			continue
		}
		return id, true
	}
	return 0, false
}

// pickProxies selects up to IndirectFanout live peers other than target.
func (d *Detector) pickProxies(target wire.NodeID) []wire.NodeID {
	var pool []wire.NodeID
	for id, m := range d.members {
		if id != target && m.status != Dead {
			pool = append(pool, id)
		}
	}
	// Deterministic pool order (map iteration is not), then partial shuffle.
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	k := d.cfg.IndirectFanout
	if k > len(pool) {
		k = len(pool)
	}
	for i := 0; i < k; i++ {
		j := i + int(d.rand()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

func (d *Detector) suspect(id wire.NodeID, m *member, inc uint32, now time.Time) {
	if m.status != Alive || inc < m.inc {
		return
	}
	m.status = Suspect
	m.inc = inc
	m.suspectAt = now
	d.queueRumor(Update{Node: id, Status: Suspect, Inc: inc})
	d.event(evstore.Ev("suspect", evstore.F("target", id), evstore.F("inc", inc)))
}

func (d *Detector) confirmDead(id wire.NodeID, m *member, inc uint32) {
	if m.status == Dead {
		return
	}
	m.status = Dead
	if inc > m.inc {
		m.inc = inc
	}
	d.queueRumor(Update{Node: id, Status: Dead, Inc: m.inc})
	d.event(evstore.Ev("confirm-dead", evstore.F("target", id), evstore.F("inc", m.inc)))
}

func (d *Detector) markAlive(id wire.NodeID, m *member, inc uint32) {
	if inc > m.inc {
		m.inc = inc
	}
	m.status = Alive
}

// applyUpdate merges one piggybacked rumor under SWIM's precedence rules:
// alive@i beats suspect@j and alive@j iff i>j; suspect@i beats alive@j iff
// i>=j and suspect@j iff i>j; dead beats everything at its incarnation, and
// is itself refuted only by alive at a strictly higher incarnation (so a
// falsely buried node can resurrect by bumping its incarnation).
func (d *Detector) applyUpdate(u Update, now time.Time) {
	if u.Node == d.cfg.Self {
		// Someone thinks we are suspect/dead: refute by re-announcing at a
		// higher incarnation.
		if u.Status != Alive && u.Inc >= d.selfInc {
			d.selfInc = u.Inc + 1
			d.queueRumor(Update{Node: d.cfg.Self, Status: Alive, Inc: d.selfInc})
			d.event(evstore.Ev("refute", evstore.F("inc", d.selfInc), evstore.F("was", u.Status)))
		}
		return
	}
	m := d.members[u.Node]
	if m == nil {
		return // not in the agreed membership: stale rumor
	}
	switch u.Status {
	case Alive:
		if u.Inc > m.inc {
			d.markAlive(u.Node, m, u.Inc)
			d.queueRumor(u)
		}
	case Suspect:
		fresher := (m.status == Alive && u.Inc >= m.inc) ||
			(m.status == Suspect && u.Inc > m.inc)
		if fresher {
			wasAlive := m.status == Alive
			m.inc = u.Inc
			if wasAlive {
				m.status = Suspect
				m.suspectAt = now
				d.event(evstore.Ev("suspect",
					evstore.F("target", u.Node), evstore.F("inc", u.Inc),
					evstore.F("via", "rumor")))
			}
			d.queueRumor(u)
		}
	case Dead:
		if m.status != Dead && u.Inc >= m.inc {
			d.confirmDead(u.Node, m, u.Inc)
		}
	}
}

// Handle processes one received protocol message and returns the replies to
// transmit. Any valid message from a tracked peer doubles as first-hand
// evidence that the peer is alive.
func (d *Detector) Handle(now time.Time, payload []byte) ([]Envelope, error) {
	msg, err := DecodeMessage(payload)
	if err != nil {
		return nil, err
	}
	for _, u := range msg.Updates {
		d.applyUpdate(u, now)
	}
	if m := d.members[msg.From]; m != nil && m.status != Alive {
		// Hearing from a suspect directly clears the local suspicion (the
		// incarnation-bumped refute still travels the rumor path).
		d.markAlive(msg.From, m, m.inc)
	}

	var out []Envelope
	switch msg.Kind {
	case mPing:
		// Answer to the sender; for proxied pings the echoed Origin lets
		// the proxy route the ack home.
		out = append(out, d.send(msg.From, Message{Kind: mAck, Origin: msg.Origin, Seq: msg.Seq}))
	case mPingReq:
		if d.members[msg.Target] != nil {
			out = append(out, d.send(msg.Target, Message{Kind: mPing, Origin: msg.From, Seq: msg.Seq}))
		}
	case mAck:
		if msg.Origin != 0 && msg.Origin != d.cfg.Self {
			// We proxied this probe: relay the ack to the origin.
			if d.members[msg.Origin] != nil {
				out = append(out, d.send(msg.Origin, Message{Kind: mAck, Origin: msg.Origin, Seq: msg.Seq}))
			}
			return out, nil
		}
		keep := d.probes[:0]
		for _, p := range d.probes {
			if p.seq == msg.Seq {
				if m := d.members[p.target]; m != nil {
					d.markAlive(p.target, m, m.inc)
				}
				continue
			}
			keep = append(keep, p)
		}
		d.probes = keep
	}
	return out, nil
}
