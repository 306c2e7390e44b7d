// Package gossip implements a SWIM-style gossip failure detector: the
// replacement for the all-to-coordinator heartbeats that capped the main
// Starfish group at tens of nodes. Each protocol round a member pings one
// peer chosen from a shuffled ring; a peer that misses the direct ack is
// probed indirectly through k proxies (ping-req), and only when both paths
// stay silent is it marked suspect. Suspicion is a rumor, not a verdict: it
// is piggybacked on subsequent messages together with an incarnation
// number, and the accused node refutes it by re-announcing itself alive at
// a higher incarnation. Per round every member sends O(1) messages
// regardless of group size — the property that lets failure detection scale
// where heartbeat fan-in cannot.
//
// How long a suspicion may stay unrefuted before it becomes the dead
// verdict depends on who vouches for it. Every suspect rumor names the member
// that failed to reach the suspect first-hand, each member counts the
// distinct accusers it has heard of, and for a member that is itself among
// them the budget shrinks from SuspectAfter (alone) to SuspectAfter/4
// (IndirectFanout further accusers) on Lifeguard's logarithmic scale; a
// member that only has the others' word waits the full SuspectAfter, or for
// the accusers' verdict. Corroboration costs no probe storm: the ping-req
// proxies of the failed probe already hold a first-hand failure and turn it
// into an accusation the moment the rumor reaches them, as does any member
// whose own ring probe fails during the suspicion. First-hand news is pushed
// at once instead of waiting for a probe to ride on: an accusation to the
// accused — a live node refutes in one round trip — and to IndirectFanout
// peers, a refutation to the accusers, a verdict to IndirectFanout peers.
// Two inputs keep the short budget honest. The transport may report a member
// whose connection it saw close (Probe): that member is probed out of turn
// on both paths at once, which moves the first suspicion forward but, being
// only a probe, cannot condemn a node by itself. And a detector whose own
// Tick arrives late gives the deadlines that fell due meanwhile a fresh
// allowance (grant), so a stalled prober does not mistake its own silence
// for its peers'.
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
	"slices"
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
	// SuspectAfter is how long a suspicion only one member vouches for may
	// stay unrefuted before the member is confirmed dead (default 8
	// rounds). Among the accusers every further one shortens the wait,
	// down to SuspectAfter/4 once IndirectFanout of them agree (see budget
	// and verdictAt).
	SuspectAfter time.Duration
	// IndirectFanout is k: the number of proxies a failed direct probe is
	// retried through, the number of peers first-hand news is pushed to,
	// and the number of corroborating accusers that earns a suspicion its
	// shortest budget (default 3).
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
	// Events optionally receives ping-timeout / evidence / suspect /
	// corroborate / refute / confirm-dead records (the daemon passes its
	// store's "gossip" emitter).
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
	// From is the member that failed to reach Node first-hand; it is set on
	// Suspect updates only. Receivers count a suspicion's accusers by
	// distinct From, so a rumor relayed by many members still counts once.
	From wire.NodeID
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
	// Seq correlates acks with the probe (always the origin's sequence);
	// zero on a ping that only pushes rumors.
	Seq     uint64
	Updates []Update
}

// EncodeMessage serializes a protocol message.
func EncodeMessage(m *Message) []byte {
	w := wire.NewWriter(22 + 13*len(m.Updates))
	w.U8(m.Kind).U32(uint32(m.From)).U32(uint32(m.Target)).U32(uint32(m.Origin)).U64(m.Seq)
	w.U8(uint8(len(m.Updates)))
	for _, u := range m.Updates {
		w.U32(uint32(u.Node)).U8(uint8(u.Status)).U32(u.Inc).U32(uint32(u.From))
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
			From:   wire.NodeID(r.U32()),
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
	// suspectAt is the local time the current suspicion (first- or
	// second-hand) began; verdictAt says when it becomes the dead verdict.
	// grace is what grant has added to that for this detector's own stalls.
	suspectAt time.Time
	grace     time.Duration
	// accusers are the distinct members known to have failed to reach this
	// one first-hand during the current suspicion, in arrival order. Past
	// expected()+1 of them further accusers change nothing and the list
	// stops growing, but for this member itself.
	accusers []wire.NodeID
	// accused is set while this member's own accusation at inc is out with
	// the group — also after a word from the suspect cleared the suspicion
	// here: the accusers it shortened the wait of still need the refutation.
	accused bool
}

// probe is one outstanding liveness check.
type probe struct {
	target wire.NodeID
	seq    uint64
	sentAt time.Time
	// indirectAt is when the ping-req fan-out went out (zero while the
	// direct ping is still in flight) and proxies is whom it went to.
	indirectAt time.Time
	proxies    []wire.NodeID
}

// relay is a ping this member sent on another's behalf (ping-req). One that
// stays unanswered for ProbeTimeout is a first-hand failure to reach target:
// it becomes an accusation if a suspicion of target is, or gets, known
// while the relay is remembered (SuspectAfter).
type relay struct {
	target, origin wire.NodeID
	sentAt         time.Time
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
	// suspects lists the members in status Suspect, ascending: the only
	// ones with a verdict pending, so timers never scan the membership.
	suspects []wire.NodeID
	// ring is the shuffled probe order; a full pass reshuffles, giving the
	// bounded worst-case detection time of round-robin randomized probing.
	ring    []wire.NodeID
	ringPos int

	selfInc   uint32
	nextSeq   uint64
	probes    []probe
	relays    []relay
	rumors    []*rumor
	lastRound time.Time
	lastTick  time.Time
	rng       uint64
	stats     Stats
	// out collects the messages of the Tick/Handle/Probe call in progress.
	out []Envelope
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

// rand draws from the detector's own generator: deterministic under the
// seed, no global state.
func (d *Detector) rand() uint64 { return splitmix64(&d.rng) }

// splitmix64 advances state one step and returns the draw.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
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
	d.dropRelays(func(r relay) bool { return d.members[r.target] == nil })
	d.suspects = slices.DeleteFunc(d.suspects, func(id wire.NodeID) bool { return d.members[id] == nil })
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

// queueRumor queues an update with a fresh retransmission budget. It
// supersedes whatever is queued about the same node, except that the
// accusations of one suspicion (same incarnation, different From) are
// separate news and travel side by side.
func (d *Detector) queueRumor(u Update) {
	keep := d.rumors[:0]
	for _, ru := range d.rumors {
		sibling := ru.u.Status == Suspect && u.Status == Suspect &&
			ru.u.Inc == u.Inc && ru.u.From != u.From
		if ru.u.Node != u.Node || sibling {
			keep = append(keep, ru)
		}
	}
	d.rumors = append(keep, &rumor{u: u})
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

// send queues one protocol message, with piggybacked rumors, for the caller
// to transmit.
func (d *Detector) send(to wire.NodeID, m Message) {
	m.From = d.cfg.Self
	m.Updates = d.piggyback()
	d.stats.Sent++
	d.out = append(d.out, Envelope{To: to, Payload: EncodeMessage(&m)})
}

// flush hands the messages of the finished call to the caller.
func (d *Detector) flush() []Envelope {
	out := d.out
	d.out = nil
	return out
}

// push carries the rumor just queued (the least-sent, so piggyback picks
// it) to the given members right away instead of waiting a round for a
// probe to ride on. The carrier is a ping no probe waits for; the ack brings
// the receiver's own news back.
func (d *Detector) push(to ...wire.NodeID) {
	for _, id := range to {
		d.send(id, Message{Kind: mPing})
	}
}

// Tick advances timers: it starts a protocol round when due, escalates
// unanswered probes to ping-req then suspicion, turns failed relays into
// accusations, and confirms suspects dead whose budget has run out. It
// returns the messages to transmit and the time of the earliest pending
// deadline. Call it no later than that, and in any case once per
// ProbeEvery: whatever a call is later than that is this member's own stall
// (see grant).
func (d *Detector) Tick(now time.Time) ([]Envelope, time.Time) {
	if late := now.Sub(d.lastTick) - d.cfg.ProbeEvery; late > 0 && !d.lastTick.IsZero() {
		d.grant(d.lastTick, now.Add(min(late, d.cfg.ProbeTimeout)))
	}
	d.lastTick = now

	// Escalate outstanding probes.
	probes := d.probes
	d.probes = d.probes[:0]
	for _, p := range probes {
		m := d.members[p.target]
		if m == nil {
			continue
		}
		switch {
		case p.indirectAt.IsZero() && now.Sub(p.sentAt) >= d.cfg.ProbeTimeout:
			d.event(evstore.Ev("ping-timeout", evstore.F("target", p.target)))
			d.fanOut(&p, now)
			d.probes = append(d.probes, p)
		case !p.indirectAt.IsZero() && now.Sub(p.indirectAt) >= d.cfg.ProbeTimeout:
			// The proxies hold the same failure first-hand: tell them.
			d.accuse(p.target, m, now, "probe", p.proxies)
		default:
			d.probes = append(d.probes, p)
		}
	}

	// A relayed ping that failed while its target is under suspicion
	// corroborates the suspicion; relays too old to matter are forgotten.
	relays := d.relays
	d.relays = d.relays[:0]
	for _, r := range relays {
		age := now.Sub(r.sentAt)
		m := d.members[r.target]
		switch {
		case m == nil || age >= d.cfg.SuspectAfter:
		case m.status == Suspect && age >= d.cfg.ProbeTimeout:
			d.accuse(r.target, m, now, "proxy", []wire.NodeID{r.origin})
		default:
			d.relays = append(d.relays, r)
		}
	}

	// Start a new round when due.
	if d.lastRound.IsZero() || now.Sub(d.lastRound) >= d.cfg.ProbeEvery {
		d.lastRound = now
		d.stats.Rounds++
		if t, ok := d.nextTarget(); ok {
			d.nextSeq++
			d.probes = append(d.probes, probe{target: t, seq: d.nextSeq, sentAt: now})
			d.send(t, Message{Kind: mPing, Seq: d.nextSeq})
		}
	}

	// Confirm suspects whose budget has run out (in id order: rumor order
	// reaches the wire, and determinism is part of the contract).
	var expired []wire.NodeID
	for _, id := range d.suspects {
		if !now.Before(d.verdictAt(d.members[id])) {
			expired = append(expired, id)
		}
	}
	for _, id := range expired {
		m := d.members[id]
		firstHand := slices.Contains(m.accusers, d.cfg.Self)
		d.confirmDead(id, m, m.inc, now, "timeout")
		if firstHand {
			d.push(append(d.pickPeers(id, nil), id)...)
		}
	}
	return d.flush(), d.deadline()
}

// grant is the local-health rule: a detector that ran late does not hold
// its own absence against its peers. Answers that had arrived were handled
// before this Tick (the caller's duty); those that could not be — their
// senders may have been stalled with us, simulated nodes share a process —
// get until `until` to come in: every deadline that fell due since the last
// Tick (`since`) is put off till then. The allowance is as long as the stall
// was, at most one ProbeTimeout, and being a floor rather than a shift it
// does not add up over the small lateness of ordinary scheduling.
func (d *Detector) grant(since, until time.Time) {
	floor := until.Add(-d.cfg.ProbeTimeout)
	for i := range d.probes {
		if p := &d.probes[i]; !p.indirectAt.IsZero() {
			if p.indirectAt.Before(floor) {
				p.indirectAt = floor
			}
		} else if p.sentAt.Before(floor) {
			p.sentAt = floor
		}
	}
	for i := range d.relays {
		// A relay that had failed before the stall stays failed.
		if r := &d.relays[i]; r.sentAt.Before(floor) && r.sentAt.Add(d.cfg.ProbeTimeout).After(since) {
			r.sentAt = floor
		}
	}
	for _, id := range d.suspects {
		if m := d.members[id]; d.verdictAt(m).Before(until) {
			m.grace += until.Sub(d.verdictAt(m))
		}
	}
}

// deadline is the earliest time a timer of this detector can next expire.
func (d *Detector) deadline() time.Time {
	next := d.lastRound.Add(d.cfg.ProbeEvery)
	sooner := func(t time.Time) {
		if t.Before(next) {
			next = t
		}
	}
	for _, p := range d.probes {
		if p.indirectAt.IsZero() {
			sooner(p.sentAt.Add(d.cfg.ProbeTimeout))
		} else {
			sooner(p.indirectAt.Add(d.cfg.ProbeTimeout))
		}
	}
	for _, id := range d.suspects {
		sooner(d.verdictAt(d.members[id]))
	}
	for _, r := range d.relays {
		if d.Status(r.target) == Suspect {
			sooner(r.sentAt.Add(d.cfg.ProbeTimeout))
		}
	}
	return next
}

// Probe is the transport's evidence that the member may be gone (its
// connection was seen closing): the member is probed out of turn, with the
// direct ping and the ping-req fan-out sent together since the direct path
// is the one that just broke. Evidence only ever starts a probe — a live
// member answers through a proxy and nothing further happens — so a
// flapping link cannot condemn a node; a dead one is suspected one
// ProbeTimeout from now instead of whenever the ring next reaches it.
func (d *Detector) Probe(now time.Time, id wire.NodeID) []Envelope {
	m := d.members[id]
	if m == nil || m.status == Dead {
		return nil
	}
	d.event(evstore.Ev("evidence", evstore.F("target", id)))
	for i := range d.probes {
		if p := &d.probes[i]; p.target == id {
			if p.indirectAt.IsZero() {
				d.fanOut(p, now)
			}
			return d.flush()
		}
	}
	d.nextSeq++
	p := probe{target: id, seq: d.nextSeq, sentAt: now}
	d.send(id, Message{Kind: mPing, Seq: p.seq})
	d.fanOut(&p, now)
	d.probes = append(d.probes, p)
	return d.flush()
}

// fanOut sends the ping-reqs of a probe's indirect stage.
func (d *Detector) fanOut(p *probe, now time.Time) {
	p.proxies = d.pickPeers(p.target, nil)
	for _, proxy := range p.proxies {
		d.send(proxy, Message{Kind: mPingReq, Target: p.target, Seq: p.seq})
	}
	p.indirectAt = now
}

// nextTarget walks the shuffled ring, skipping confirmed-dead peers and
// peers already under probe.
func (d *Detector) nextTarget() (wire.NodeID, bool) {
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
		if m == nil || m.status == Dead || d.probing(id) {
			continue
		}
		return id, true
	}
	return 0, false
}

// probing reports whether a probe of id is outstanding.
func (d *Detector) probing(id wire.NodeID) bool {
	for i := range d.probes {
		if d.probes[i].target == id {
			return true
		}
	}
	return false
}

// pickPeers selects up to IndirectFanout live peers other than not: those
// of prefer that qualify first, then a seeded random draw.
func (d *Detector) pickPeers(not wire.NodeID, prefer []wire.NodeID) []wire.NodeID {
	var pool []wire.NodeID
	for id, m := range d.members {
		if id != not && m.status != Dead {
			pool = append(pool, id)
		}
	}
	// Deterministic pool order (map iteration is not), then partial shuffle.
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	k := min(d.cfg.IndirectFanout, len(pool))
	n := 0 // pool[:n] is chosen
	for _, want := range prefer {
		for j := n; j < len(pool) && n < k; j++ {
			if pool[j] == want {
				pool[n], pool[j] = pool[j], pool[n]
				n++
				break
			}
		}
	}
	for ; n < k; n++ {
		j := n + int(d.rand()%uint64(len(pool)-n))
		pool[n], pool[j] = pool[j], pool[n]
	}
	return pool[:k]
}

// log2x1024[x] is round(1024·log2(x)) for x = 1..9: enough for budget's
// ratio of logarithms with integers only (up to 8 expected accusers).
var log2x1024 = [...]int64{1: 0, 1024, 1623, 2048, 2378, 2647, 2875, 3072, 3246}

// expected is K, the number of corroborating accusers (beyond the first)
// that earns a suspicion its shortest budget: IndirectFanout, or every
// member other than the first accuser and the suspect in a group too small
// to supply that many.
func (d *Detector) expected() int {
	return max(0, min(d.cfg.IndirectFanout, len(d.members)-1, len(log2x1024)-2))
}

// budget is how long a suspicion with c corroborating accusers may stay
// unrefuted — Lifeguard's max − (max − min)·log(c+1)/log(K+1), with max =
// SuspectAfter and min a quarter of it. One accuser alone (c = 0, or a
// group with nobody else to ask) waits the full SuspectAfter; K of them
// agreeing independently are believed four times sooner.
func (d *Detector) budget(c int) time.Duration {
	longest := d.cfg.SuspectAfter
	k := d.expected()
	c = min(max(c, 0), k)
	if c == 0 {
		return longest
	}
	return longest - (longest-longest/4)*time.Duration(log2x1024[c+1])/time.Duration(log2x1024[k+1])
}

// verdictAt is when an unrefuted suspicion of m becomes the dead verdict
// here. Only a member that failed to reach the suspect itself cuts its wait
// short: it has offered the suspect a direct chance to answer, whereas a
// refutation can take as long to reach a member that knows the suspicion
// from hearsay as the suspicion took. Such a member waits out SuspectAfter
// — or, sooner, the verdict of the accusers, which they push when they
// reach it.
func (d *Detector) verdictAt(m *member) time.Time {
	c := 0
	if slices.Contains(m.accusers, d.cfg.Self) {
		c = len(m.accusers) - 1
	}
	return m.suspectAt.Add(d.budget(c) + m.grace)
}

// setStatus moves a member between states, keeping suspects in step.
func (d *Detector) setStatus(id wire.NodeID, m *member, s Status) {
	i, listed := slices.BinarySearch(d.suspects, id)
	switch {
	case s == Suspect && !listed:
		d.suspects = slices.Insert(d.suspects, i, id)
	case s != Suspect && listed:
		d.suspects = slices.Delete(d.suspects, i, i+1)
	}
	m.status = s
}

// beginSuspicion opens a suspicion of m at incarnation inc on the word of
// accuser.
func (d *Detector) beginSuspicion(id wire.NodeID, m *member, inc uint32, accuser wire.NodeID, now time.Time) {
	d.setStatus(id, m, Suspect)
	if inc != m.inc {
		m.inc, m.accused = inc, false
	}
	m.suspectAt = now
	m.grace = 0
	m.accusers = append(m.accusers[:0], accuser)
}

// addAccuser counts another member's accusation toward the current
// suspicion of m; it reports false for one already counted and once the
// list is full.
func (d *Detector) addAccuser(m *member, accuser wire.NodeID) bool {
	if len(m.accusers) > d.expected() || slices.Contains(m.accusers, accuser) {
		return false
	}
	m.accusers = append(m.accusers, accuser)
	return true
}

// accuse records this member's own failure to reach id (via names how it
// found out: a ring or evidence "probe", or a ping relayed as a "proxy"):
// it opens a suspicion, or joins one that is open. The accusation is
// first-hand news and is pushed, tell first — unless the suspicion already
// has all the accusers anyone counts, and then it only changes how long this
// member itself waits (see verdictAt).
func (d *Detector) accuse(id wire.NodeID, m *member, now time.Time, via string, tell []wire.NodeID) {
	switch {
	case m.status == Alive:
		d.beginSuspicion(id, m, m.inc, d.cfg.Self, now)
		d.event(evstore.Ev("suspect", evstore.F("target", id), evstore.F("inc", m.inc)))
	case m.status == Suspect && !slices.Contains(m.accusers, d.cfg.Self):
		full := len(m.accusers) > d.expected()
		m.accusers = append(m.accusers, d.cfg.Self)
		d.corroborated(id, m, d.cfg.Self, via)
		if full {
			return
		}
	default:
		return
	}
	m.accused = true
	d.queueRumor(Update{Node: id, Status: Suspect, Inc: m.inc, From: d.cfg.Self})
	// The accused first: if it lives, its ack carries the refutation.
	d.push(append([]wire.NodeID{id}, d.pickPeers(id, tell)...)...)
}

func (d *Detector) corroborated(id wire.NodeID, m *member, accuser wire.NodeID, via string) {
	d.event(evstore.Ev("corroborate",
		evstore.F("target", id), evstore.F("from", accuser),
		evstore.F("confirmations", len(m.accusers)-1), evstore.F("via", via)))
}

// confirmDead records the verdict. via is "timeout" for this member's own
// conclusion and "rumor" for one it was told.
func (d *Detector) confirmDead(id wire.NodeID, m *member, inc uint32, now time.Time, via string) {
	if m.status == Dead {
		return
	}
	confirmations, after := 0, time.Duration(0)
	if m.status == Suspect {
		confirmations, after = len(m.accusers)-1, now.Sub(m.suspectAt)
	}
	d.setStatus(id, m, Dead)
	m.accusers, m.accused = nil, false
	if inc > m.inc {
		m.inc = inc
	}
	d.dropRelays(func(r relay) bool { return r.target == id })
	d.queueRumor(Update{Node: id, Status: Dead, Inc: m.inc})
	d.event(evstore.Ev("confirm-dead",
		evstore.F("target", id), evstore.F("inc", m.inc),
		evstore.F("confirmations", confirmations),
		evstore.F("after_ms", after.Milliseconds()), evstore.F("via", via)))
}

func (d *Detector) markAlive(id wire.NodeID, m *member, inc uint32) {
	if inc > m.inc {
		m.inc = inc
		m.accused = false
	}
	d.setStatus(id, m, Alive)
	m.accusers = nil
}

// heard notes proof that id was alive a moment ago — a message from it, or
// an ack it returned through a proxy. That clears a suspicion held here
// (the incarnation-bumped refutation still travels the rumor path for
// everyone else) but never a dead verdict: the last packets of a crashed
// node can outlive it, so the dead return only by refuting, see applyUpdate.
func (d *Detector) heard(id wire.NodeID) {
	m := d.members[id]
	if m == nil {
		return
	}
	if m.status == Suspect {
		d.markAlive(id, m, m.inc)
	}
	d.dropRelays(func(r relay) bool { return r.target == id })
}

func (d *Detector) dropRelays(drop func(relay) bool) {
	keep := d.relays[:0]
	for _, r := range d.relays {
		if !drop(r) {
			keep = append(keep, r)
		}
	}
	d.relays = keep
}

// applyUpdate merges one piggybacked rumor under SWIM's precedence rules:
// alive@i beats suspect@j and alive@j iff i>j; suspect@i beats alive@j iff
// i>=j and suspect@j iff i>j, while suspect@j from a new accuser adds to the
// count behind suspect@j; dead beats everything at its incarnation, and is
// itself refuted only by alive at a strictly higher incarnation (so a
// falsely buried node can resurrect by bumping its incarnation).
func (d *Detector) applyUpdate(u Update, now time.Time) {
	if u.Node == d.cfg.Self {
		// Someone thinks we are suspect/dead: refute by re-announcing at a
		// higher incarnation, to the accuser first.
		if u.Status != Alive && u.Inc >= d.selfInc {
			d.selfInc = u.Inc + 1
			d.queueRumor(Update{Node: d.cfg.Self, Status: Alive, Inc: d.selfInc})
			d.event(evstore.Ev("refute", evstore.F("inc", d.selfInc), evstore.F("was", u.Status)))
			d.push(d.pickPeers(d.cfg.Self, []wire.NodeID{u.From})...)
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
			accused, accusers := m.accused, m.accusers
			d.markAlive(u.Node, m, u.Inc)
			d.queueRumor(u)
			if accused {
				// We accused it, and it lives: the accusers are the members
				// whose budgets run short, so they hear of it from each other.
				d.push(d.pickPeers(u.Node, accusers)...)
			}
		}
	case Suspect:
		switch {
		case m.status == Dead || u.Inc < m.inc || u.From == d.cfg.Self:
			// Stale — or our own accusation echoed back, which says nothing
			// we did not know, least of all after hearing from the suspect.
			return
		case m.status == Alive || u.Inc > m.inc:
			d.beginSuspicion(u.Node, m, u.Inc, u.From, now)
			d.event(evstore.Ev("suspect",
				evstore.F("target", u.Node), evstore.F("inc", u.Inc),
				evstore.F("via", "rumor")))
		case d.addAccuser(m, u.From):
			d.corroborated(u.Node, m, u.From, "rumor")
		default:
			return // an echo of an accuser already counted
		}
		d.queueRumor(u)
		// A ping relayed to the suspect that already went unanswered is this
		// member's own failure to reach it: say so now.
		for _, r := range d.relays {
			if r.target == u.Node && now.Sub(r.sentAt) >= d.cfg.ProbeTimeout {
				d.accuse(u.Node, m, now, "proxy", []wire.NodeID{r.origin})
				break
			}
		}
	case Dead:
		if m.status != Dead && u.Inc >= m.inc {
			d.confirmDead(u.Node, m, u.Inc, now, "rumor")
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
	d.heard(msg.From)
	if m := d.members[msg.From]; m != nil && m.status == Dead {
		// Buried here, yet talking: the reply tells it so, and if it really
		// lives it comes back by refuting.
		d.queueRumor(Update{Node: msg.From, Status: Dead, Inc: m.inc})
	}

	switch msg.Kind {
	case mPing:
		// Answer to the sender; for proxied pings the echoed Origin lets
		// the proxy route the ack home.
		d.send(msg.From, Message{Kind: mAck, Origin: msg.Origin, Seq: msg.Seq})
	case mPingReq:
		if d.members[msg.Target] != nil {
			d.send(msg.Target, Message{Kind: mPing, Origin: msg.From, Seq: msg.Seq})
			d.relays = append(d.relays, relay{target: msg.Target, origin: msg.From, sentAt: now})
		}
	case mAck:
		if msg.Origin != 0 && msg.Origin != d.cfg.Self {
			// We proxied this probe: relay the ack to the origin.
			if d.members[msg.Origin] != nil {
				d.send(msg.Origin, Message{Kind: mAck, Origin: msg.Origin, Seq: msg.Seq})
			}
			break
		}
		keep := d.probes[:0]
		for _, p := range d.probes {
			if p.seq == msg.Seq {
				d.heard(p.target)
				continue
			}
			keep = append(keep, p)
		}
		d.probes = keep
	}
	return d.flush(), nil
}
