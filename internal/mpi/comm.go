// Package mpi is Starfish's MPI module: the message-passing library that
// application code programs against.
//
// It implements blocking and non-blocking point-to-point operations with
// MPI matching semantics (source/tag wildcards, per-pair FIFO), the
// standard collectives, and the Starfish-specific hooks the paper adds on
// top of MPI: checkpoint-interval tagging and sender-side logging for
// uncoordinated C/R, the atomic queue cut with per-pair message counts that
// every protocol snapshots at, and in-band markers with channel recording
// for the coordinated ones.
//
// Data messages travel on the fast path — directly from this module to the
// VNI — and never touch the object bus or the daemons, which is the
// paper's key performance decision. Receives are serviced from one queue of
// received messages, which the VNI's intake fills itself (§2.2.1): the
// goroutine that delivers a message — on fastnet the sender's own, inside
// its Send; on TCP the connection's polling goroutine — runs the matcher's
// intake on it, so a blocking receive whose message already arrived is a
// queue pop, not a kernel interaction, and one that waits is woken by the
// goroutine that delivered the message.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"starfish/internal/vni"
	"starfish/internal/wire"
)

// API errors.
var (
	ErrClosed    = errors.New("mpi: communicator closed")
	ErrBadRank   = errors.New("mpi: rank out of range")
	ErrPeerDead  = errors.New("mpi: peer rank failed")
	ErrTooLarge  = errors.New("mpi: message exceeds wire.MaxPayload")
	ErrBadLength = errors.New("mpi: buffer length mismatch")
)

// msgPool recycles the Msg header structs built once per send. Both
// transports consume the Msg before Send returns — fastnet copies it by
// value to the receiver, TCP serializes it onto the socket — so the struct
// is dead the moment NIC.Send comes back and can be reused. At the
// chunked collectives' message rates this is the send path's only
// steady-state allocation.
var msgPool = sync.Pool{New: func() any { return new(wire.Msg) }}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source wire.Rank
	Tag    int32
	// Interval is the sender's checkpoint-interval index at send time
	// (uncoordinated C/R dependency tracking).
	Interval uint64
	// Pooled reports that the payload delivered with this status is owned
	// by the receiver via the wire.BufPool discipline: the receiver may
	// hand it back with wire.PutBuf (or resend it with SendOwned) once
	// done, closing the zero-copy recycling loop. Ignoring it is safe —
	// the buffer is then simply garbage-collected — but every message so
	// ignored is a pool miss at its sender. A receiver that forwards the
	// payload, or reads it in place and is too large to copy, wants Recv
	// and this flag; one that has a place for the bytes wants RecvInto,
	// which returns the buffer itself and leaves Pooled false.
	Pooled bool
}

// Config assembles a communicator.
type Config struct {
	App  wire.AppID
	Rank wire.Rank
	Size int
	// NIC is the process's data-path endpoint.
	NIC *vni.NIC
	// Addrs maps every rank to its data-path address.
	Addrs map[wire.Rank]string
	// Timer, when non-nil, records per-layer times (Figure 6).
	Timer *vni.StageTimer
	// OnMarker is invoked when a Chandy–Lamport marker arrives on the data
	// path. Like OnReceive it is called on the goroutine delivering the
	// connection the message arrived on (vni.NIC.Deliver; on fastnet the
	// sender's): concurrently across connections, in arrival order within
	// one, and before that connection's next message is looked at. Neither
	// may send on the data path.
	OnMarker func(src wire.Rank, ckptID uint64)
	// OnReceive is invoked for every data message, with the sender's
	// interval — the C/R module records the dependency, or wakes a rank
	// whose drain awaits the message. It is called with the communicator's
	// lock held, once the message is counted and queued and before any
	// receive can match it, so it must not call into the communicator: a
	// Cut either counts the message and follows the call or precedes both.
	OnReceive func(src wire.Rank, srcInterval uint64)
	// LogSends keeps a copy of every outgoing data message (sender-based
	// message logging). The uncoordinated C/R protocol persists the log
	// with each checkpoint and replays it at restart so that messages a
	// rolled-back receiver forgot are not lost.
	LogSends bool
	// SentCounts/RecvCounts seed the per-pair sequence counters before the
	// first message is taken in. A restarted rank MUST seed its restored counts
	// here rather than install them afterwards: peers that finished their own
	// restore earlier are already re-sending, and any message accepted while
	// the counters still read zero would bypass duplicate suppression and
	// linger in the unexpected queue as a stale extra token.
	SentCounts map[wire.Rank]uint64
	RecvCounts map[wire.Rank]uint64
	// Pending and ChannelState seed the receive queue of a restarted rank
	// from its checkpoint, in that order, before the first message is
	// taken in — for the same reason as the counts: a peer that restored
	// faster is already sending, and a new message accepted first would be
	// matched ahead of the older restored ones. Pending messages were
	// counted before the snapshot (RecvCounts covers them); channel-state
	// messages arrived after it and advance the receive counts here.
	Pending      []RecordedMsg
	ChannelState []RecordedMsg
}

// envelope is a matched or matchable message inside the engine.
type envelope struct {
	src      wire.Rank
	tag      int32
	data     []byte
	pooled   bool // data is pool-owned; ownership passes to the receiver
	interval uint64
	seq      uint64
	arrived  time.Time
}

// RecordedMsg is one data message captured outside the live queue: channel
// state recorded by Chandy–Lamport, pending messages captured with a
// checkpoint, or an entry of the sender-side message log.
type RecordedMsg struct {
	Src      wire.Rank
	Dst      wire.Rank // used by sender-log entries
	Tag      int32
	Data     []byte
	Interval uint64
	Seq      uint64
}

// Comm is a communicator over a fixed set of ranks (one incarnation of an
// application). All methods are safe for concurrent use.
type Comm struct {
	cfg Config

	mu         sync.Mutex
	cond       *sync.Cond
	unexpected []envelope
	closed     bool
	dead       map[wire.Rank]bool

	sentCount map[wire.Rank]uint64
	recvCount map[wire.Rank]uint64

	interval uint64

	recording  bool
	recordFrom map[wire.Rank]bool
	recorded   []RecordedMsg

	sentLog []RecordedMsg

	// One-entry cache of the even chunk geometry (guarded by mu): the
	// chunked collectives recompute the same counts/offs every call, and a
	// steady workload repeats one message size.
	collGeomTotal int
	collGeomAlign int
	collGeomCnts  []int
	collGeomOffs  []int

	// onClose, if set, runs at the end of Close (used by owners that want
	// the NIC torn down with the communicator).
	onClose func()
}

// New creates a communicator and takes over the NIC's received messages:
// whatever the NIC queued so far, then each message as it is delivered
// (vni.NIC.Deliver).
func New(cfg Config) (*Comm, error) {
	if cfg.Size <= 0 || int(cfg.Rank) < 0 || int(cfg.Rank) >= cfg.Size {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBadRank, cfg.Rank, cfg.Size)
	}
	c := &Comm{
		cfg:       cfg,
		dead:      make(map[wire.Rank]bool),
		sentCount: make(map[wire.Rank]uint64),
		recvCount: make(map[wire.Rank]uint64),
	}
	for r, n := range cfg.SentCounts {
		c.sentCount[r] = n
	}
	for r, n := range cfg.RecvCounts {
		c.recvCount[r] = n
	}
	for _, m := range cfg.Pending {
		c.unexpected = append(c.unexpected, envelope{src: m.Src, tag: m.Tag, data: m.Data, interval: m.Interval, seq: m.Seq})
	}
	for _, m := range cfg.ChannelState {
		c.unexpected = append(c.unexpected, envelope{src: m.Src, tag: m.Tag, data: m.Data, interval: m.Interval, seq: m.Seq})
		c.bumpRecvLocked(m.Src, m.Seq)
	}
	c.cond = sync.NewCond(&c.mu)
	cfg.NIC.Deliver(c.handle)
	return c, nil
}

// Rank returns this process's rank.
func (c *Comm) Rank() wire.Rank { return c.cfg.Rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.cfg.Size }

// App returns the application id.
func (c *Comm) App() wire.AppID { return c.cfg.App }

// handle is the matcher's intake, the consumer side of the paper's
// polling-thread design: it runs on the goroutine delivering the connection
// m arrived on — on fastnet the sender's, inside its Send — so messages of
// one connection are handled in order and connections do not wait for each
// other outside c.mu.
func (c *Comm) handle(m wire.Msg) {
	if m.App != c.cfg.App {
		m.Release() // stale traffic from a previous incarnation
		return
	}
	switch m.Type {
	case wire.TData:
		arrived := time.Time{}
		if c.cfg.Timer != nil {
			arrived = time.Now()
		}
		interval := uint64(m.Kind)
		// The pooled transport buffer goes straight into the matcher —
		// the receive path performs no copy; the application becomes the
		// payload's owner when Recv matches it.
		env := envelope{src: m.Src, tag: m.Tag, data: m.Payload, pooled: m.Pooled, interval: interval, seq: m.Seq, arrived: arrived}
		c.mu.Lock()
		// Duplicate suppression: after a restart, the sender-side log is
		// replayed and may include messages this rank's restored state
		// already consumed; their per-pair sequence numbers are not
		// beyond our receive count. And a closed communicator has no
		// receiver left to match anything.
		if c.closed || env.seq != 0 && env.seq <= c.recvCount[m.Src] {
			c.mu.Unlock()
			m.Release()
			return
		}
		if c.recording && c.recordFrom[m.Src] {
			wire.CountCopy(wire.CopyCR, len(m.Payload))
			c.recorded = append(c.recorded, RecordedMsg{
				Src: m.Src, Tag: m.Tag,
				Data:     append([]byte(nil), m.Payload...),
				Interval: interval, Seq: env.seq,
			})
		}
		c.unexpected = append(c.unexpected, env)
		c.bumpRecvLocked(m.Src, env.seq)
		if c.cfg.OnReceive != nil {
			c.cfg.OnReceive(m.Src, interval)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if c.cfg.Timer != nil {
			c.cfg.Timer.Add(vni.StageVNIRecv, time.Since(arrived))
		}
	case wire.TCheckpoint:
		// Only markers travel in-band on the data path.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if c.cfg.OnMarker != nil && !closed {
			r := wire.NewReader(m.Payload)
			id := r.U64()
			if r.Err() == nil {
				c.cfg.OnMarker(m.Src, id)
			}
		}
		m.Release()
	default:
		m.Release() // not fast-path traffic; recycle and drop
	}
}

// bumpRecvLocked advances the per-peer receive count: sequenced messages
// set it to their sequence number, unsequenced ones (raw test traffic,
// injected channel state) just increment.
func (c *Comm) bumpRecvLocked(src wire.Rank, seq uint64) {
	if seq != 0 {
		if seq > c.recvCount[src] {
			c.recvCount[src] = seq
		}
		return
	}
	c.recvCount[src]++
}

// ---- point-to-point ----

// Send transmits buf to dst with the given tag. It blocks until the
// message is handed to the transport (eager/buffered semantics: the caller
// may immediately reuse buf).
//
// This is the MPI API boundary, and the one place on the fast path where a
// payload copy is mandatory: MPI semantics return buf to the caller, so
// Send stages it once into a pooled buffer that then travels application →
// MPI → VNI → receiver with no further copies (see "Fast-path copy budget"
// in DESIGN.md). Callers that can give up their buffer use SendOwned and
// skip even that copy.
func (c *Comm) Send(dst wire.Rank, tag int32, buf []byte) error {
	return c.send(dst, tag, buf, false)
}

// SendOwned is the zero-copy variant of Send: ownership of payload — a
// buffer checked out of the wire.BufPool (wire.GetBuf), or one delivered by
// a Recv whose Status reported Pooled — transfers to the library, which
// moves it through the transport without copying. The caller must not
// read, reuse, or release payload after SendOwned returns, success or not.
func (c *Comm) SendOwned(dst wire.Rank, tag int32, payload []byte) error {
	return c.send(dst, tag, payload, true)
}

func (c *Comm) send(dst wire.Rank, tag int32, buf []byte, owned bool) error {
	var t0 time.Time
	if c.cfg.Timer != nil {
		t0 = time.Now()
	}
	releaseOnErr := func() {
		if owned {
			wire.PutBuf(buf)
		}
	}
	if int(dst) < 0 || int(dst) >= c.cfg.Size {
		releaseOnErr()
		return fmt.Errorf("%w: dst %d", ErrBadRank, dst)
	}
	if len(buf) > wire.MaxPayload {
		releaseOnErr()
		return ErrTooLarge
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		releaseOnErr()
		return ErrClosed
	}
	if c.dead[dst] {
		c.mu.Unlock()
		releaseOnErr()
		return fmt.Errorf("%w: rank %d", ErrPeerDead, dst)
	}
	addr, ok := c.cfg.Addrs[dst]
	interval := c.interval
	c.sentCount[dst]++
	seq := c.sentCount[dst]
	if c.cfg.LogSends {
		wire.CountCopy(wire.CopyCR, len(buf))
		c.sentLog = append(c.sentLog, RecordedMsg{
			Src: c.cfg.Rank, Dst: dst, Tag: tag,
			Data:     append([]byte(nil), buf...),
			Interval: interval, Seq: seq,
		})
	}
	c.mu.Unlock()
	if !ok {
		releaseOnErr()
		return fmt.Errorf("%w: no address for rank %d", ErrBadRank, dst)
	}

	// Stage the caller's buffer into a pooled payload (the single
	// API-boundary copy); an owned payload moves through as-is.
	payload, pooled := buf, owned && len(buf) > 0
	if !owned && len(buf) > 0 {
		var missed bool
		payload, missed = wire.Pool.GetAlloc(len(buf))
		copy(payload, buf)
		pooled = true
		wire.CountCopy(wire.CopyBoundary, len(buf))
		if c.cfg.Timer != nil {
			c.cfg.Timer.AddCopy(vni.StageMPISend, len(buf))
			if missed {
				c.cfg.Timer.AddAlloc(vni.StageMPISend)
			}
		}
	}
	m := msgPool.Get().(*wire.Msg)
	*m = wire.Msg{
		Type: wire.TData, App: c.cfg.App, Kind: uint16(interval),
		Src: c.cfg.Rank, Dst: dst, Tag: tag, Seq: seq,
		Payload: payload, Pooled: pooled,
	}
	var t1 time.Time
	if c.cfg.Timer != nil {
		t1 = time.Now()
		c.cfg.Timer.Add(vni.StageMPISend, t1.Sub(t0))
	}
	err := c.cfg.NIC.Send(addr, m)
	if c.cfg.Timer != nil {
		c.cfg.Timer.Add(vni.StageVNISend, time.Since(t1))
	}
	if err != nil {
		err = c.sendRetry(dst, addr, m, err)
	}
	if err != nil {
		// Terminal failure: the payload never left, reclaim it.
		m.Release()
	}
	msgPool.Put(m)
	return err
}

// sendRetry handles a transport-level send failure. A dead connection is
// the first symptom of a peer-node crash, but the verdict belongs to the
// cluster: the failure detector will either mark the rank dead (notify
// policy), abort this process (restart policy), or the link flaps back.
// Until one of those happens the send stays pending, mirroring MPI
// semantics where a send to a crashed rank blocks rather than erroring.
func (c *Comm) sendRetry(dst wire.Rank, addr string, m *wire.Msg, first error) error {
	if errors.Is(first, wire.ErrPayloadTooLarge) {
		return fmt.Errorf("mpi: send to rank %d: %w", dst, first)
	}
	for {
		c.mu.Lock()
		closed, dead := c.closed, c.dead[dst]
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if dead {
			return fmt.Errorf("%w: rank %d", ErrPeerDead, dst)
		}
		// Deliberate backoff between redial attempts; the loop exits via
		// the closed/dead checks above when recovery declares the peer gone.
		time.Sleep(time.Millisecond)
		c.cfg.NIC.Disconnect(addr) // drop the dead connection, then redial
		if err := c.cfg.NIC.Send(addr, m); err == nil {
			return nil
		}
	}
}

// matches reports whether env satisfies a receive posted for (src, tag).
func matches(env *envelope, src wire.Rank, tag int32) bool {
	if src != wire.AnyRank && env.src != src {
		return false
	}
	if tag != wire.AnyTag && env.tag != tag {
		return false
	}
	return true
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be wire.AnyRank and tag wire.AnyTag. The caller owns
// the returned payload; when the status reports Pooled, handing it back
// with wire.PutBuf (or forwarding it with SendOwned) closes the fast
// path's zero-allocation recycling loop.
func (c *Comm) Recv(src wire.Rank, tag int32) ([]byte, Status, error) {
	env, err := c.take(src, tag, wire.MaxPayload)
	if err != nil {
		return nil, Status{}, err
	}
	return env.data, Status{Source: env.src, Tag: env.tag, Interval: env.interval, Pooled: env.pooled}, nil
}

// RecvInto is Recv with MPI_Recv's own signature: the matched payload is
// copied to the front of dst and its length returned. A payload longer than
// dst is ErrBadLength, and the message stays queued for a receive with room
// for it. The copy is the receive side's API-boundary copy, the mirror of
// Send's; in exchange the transport buffer goes back to the pool here, so
// the caller has nothing to release and a small message cannot leak one.
func (c *Comm) RecvInto(src wire.Rank, tag int32, dst []byte) (int, Status, error) {
	env, err := c.take(src, tag, len(dst))
	if err != nil {
		return 0, Status{}, err
	}
	n := copy(dst, env.data)
	if n > 0 {
		wire.CountCopy(wire.CopyBoundary, n)
		if c.cfg.Timer != nil {
			c.cfg.Timer.AddCopy(vni.StageMPIRecv, n)
		}
	}
	if env.pooled {
		wire.PutBuf(env.data)
	}
	return n, Status{Source: env.src, Tag: env.tag, Interval: env.interval}, nil
}

// take blocks until a message matching (src, tag) is queued and removes it.
// A first match longer than room bytes is left where it is and reported as
// ErrBadLength.
func (c *Comm) take(src wire.Rank, tag int32, room int) (envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for i := range c.unexpected {
			if matches(&c.unexpected[i], src, tag) {
				env := c.unexpected[i]
				if len(env.data) > room {
					return envelope{}, fmt.Errorf("%w: %d-byte message from rank %d, room for %d", ErrBadLength, len(env.data), env.src, room)
				}
				c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
				if c.cfg.Timer != nil && !env.arrived.IsZero() {
					c.cfg.Timer.Add(vni.StageMPIRecv, time.Since(env.arrived))
				}
				return env, nil
			}
		}
		if c.closed {
			return envelope{}, ErrClosed
		}
		if src != wire.AnyRank && c.dead[src] {
			return envelope{}, fmt.Errorf("%w: rank %d", ErrPeerDead, src)
		}
		c.cond.Wait()
	}
}

// Probe blocks until a matching message is available without receiving it,
// returning its status (like MPI_Probe).
func (c *Comm) Probe(src wire.Rank, tag int32) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for i := range c.unexpected {
			if matches(&c.unexpected[i], src, tag) {
				e := &c.unexpected[i]
				return Status{Source: e.src, Tag: e.tag, Interval: e.interval}, nil
			}
		}
		if c.closed {
			return Status{}, ErrClosed
		}
		if src != wire.AnyRank && c.dead[src] {
			return Status{}, fmt.Errorf("%w: rank %d", ErrPeerDead, src)
		}
		c.cond.Wait()
	}
}

// Iprobe is the non-blocking Probe: it reports whether a matching message
// is available.
func (c *Comm) Iprobe(src wire.Rank, tag int32) (Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.unexpected {
		if matches(&c.unexpected[i], src, tag) {
			e := &c.unexpected[i]
			return Status{Source: e.src, Tag: e.tag, Interval: e.interval}, true
		}
	}
	return Status{}, false
}

// Request is a handle on a non-blocking operation, like MPI_Request.
type Request struct {
	done   chan struct{}
	data   []byte
	status Status
	err    error
}

// Wait blocks until the operation completes and returns its result. For
// receives the returned bytes are the message payload.
func (r *Request) Wait() ([]byte, Status, error) {
	<-r.done
	return r.data, r.status, r.err
}

// Test reports whether the operation has completed without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a non-blocking send.
func (c *Comm) Isend(dst wire.Rank, tag int32, buf []byte) *Request {
	r := &Request{done: make(chan struct{})}
	// Eager sends complete as soon as the transport takes the bytes, but
	// a send to an unreachable peer may block (sendRetry), so complete
	// asynchronously. The async-safety copy goes straight into a pooled
	// buffer and moves from there (one copy total, not copy-then-stage).
	data := wire.GetBuf(len(buf))
	copy(data, buf)
	if len(buf) > 0 {
		wire.CountCopy(wire.CopyBoundary, len(buf))
	}
	go func() {
		r.err = c.SendOwned(dst, tag, data)
		close(r.done)
	}()
	return r
}

// IsendOwned starts a non-blocking send of a pool-owned payload (same
// ownership contract as SendOwned: the caller must not touch payload after
// the call). Collectives use it to fan segments out to several children
// concurrently without the Isend staging copy.
func (c *Comm) IsendOwned(dst wire.Rank, tag int32, payload []byte) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		r.err = c.SendOwned(dst, tag, payload)
		close(r.done)
	}()
	return r
}

// Irecv starts a non-blocking receive.
func (c *Comm) Irecv(src wire.Rank, tag int32) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		r.data, r.status, r.err = c.Recv(src, tag)
		close(r.done)
	}()
	return r
}

// WaitAll waits for every request and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- Starfish C/R hooks ----

// SetInterval sets the checkpoint-interval index stamped on outgoing data
// messages (uncoordinated C/R).
func (c *Comm) SetInterval(n uint64) {
	c.mu.Lock()
	c.interval = n
	c.mu.Unlock()
}

// RecvCounts returns a snapshot of cumulative data messages received per
// peer.
func (c *Comm) RecvCounts() map[wire.Rank]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[wire.Rank]uint64, len(c.recvCount))
	for r, n := range c.recvCount {
		out[r] = n
	}
	return out
}

// SendMarker sends a Chandy–Lamport marker for checkpoint id on the data
// channel to dst. Markers travel in-band: they are FIFO-ordered with data
// messages on the same channel, which is what makes the snapshot cut
// consistent.
func (c *Comm) SendMarker(dst wire.Rank, ckptID uint64) error {
	addr, ok := c.cfg.Addrs[dst]
	if !ok {
		return fmt.Errorf("%w: no address for rank %d", ErrBadRank, dst)
	}
	payload := wire.GetBuf(8)
	binary.BigEndian.PutUint64(payload, ckptID)
	// Pooled: the receiver's marker handler releases it after decoding, so
	// steady marker traffic recycles one 8-byte-class buffer.
	m := wire.Msg{Type: wire.TCheckpoint, App: c.cfg.App, Src: c.cfg.Rank, Dst: dst, Payload: payload, Pooled: true}
	err := c.cfg.NIC.Send(addr, &m)
	if err != nil {
		m.Release()
	}
	return err
}

// StopRecordingFrom stops recording the channel from src (its marker
// arrived) and reports whether any channels are still being recorded.
func (c *Comm) StopRecordingFrom(src wire.Rank) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.recordFrom, src)
	if len(c.recordFrom) == 0 {
		c.recording = false
	}
	return c.recording
}

// TakeRecorded ends channel recording and returns what it captured since
// the Cut that began it. A C/R round calls it when it finalizes, so traffic
// between rounds is not copied.
func (c *Comm) TakeRecorded() []RecordedMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.recorded
	c.recording, c.recordFrom, c.recorded = false, nil, nil
	return rec
}

// TakeSentLog returns and clears the sender-side message log (the sends of
// the checkpoint interval just closed). Requires Config.LogSends.
func (c *Comm) TakeSentLog() []RecordedMsg {
	c.mu.Lock()
	log := c.sentLog
	c.sentLog = nil
	c.mu.Unlock()
	return log
}

// Replay retransmits a logged message verbatim — original tag, per-pair
// sequence number and interval — so the receiver's duplicate suppression
// and dependency tracking see exactly the original send.
func (c *Comm) Replay(m RecordedMsg) error {
	addr, ok := c.cfg.Addrs[m.Dst]
	if !ok {
		return fmt.Errorf("%w: no address for rank %d", ErrBadRank, m.Dst)
	}
	out := wire.Msg{
		Type: wire.TData, App: c.cfg.App, Kind: uint16(m.Interval),
		Src: c.cfg.Rank, Dst: m.Dst, Tag: m.Tag, Seq: m.Seq,
		Payload: m.Data,
	}
	return c.cfg.NIC.Send(addr, &out)
}

// Cut is the snapshot point of the MPI layer: atomically it (1) captures
// the current pending (received-but-unconsumed) messages — they are part
// of the process checkpoint, and (2) starts recording, as channel state,
// the data messages that arrive from the ranks in recordFrom (they are
// still delivered normally). It returns the captured pending messages
// together with the send/receive counters as of the cut.
func (c *Comm) Cut(recordFrom []wire.Rank) (pendingMsgs []RecordedMsg, sent, recv map[wire.Rank]uint64) {
	c.mu.Lock()
	pending := make([]RecordedMsg, 0, len(c.unexpected))
	for _, env := range c.unexpected {
		wire.CountCopy(wire.CopyCR, len(env.data))
		pending = append(pending, RecordedMsg{
			Src: env.src, Tag: env.tag,
			Data:     append([]byte(nil), env.data...),
			Interval: env.interval, Seq: env.seq,
		})
	}
	c.recording = len(recordFrom) > 0
	c.recordFrom = make(map[wire.Rank]bool, len(recordFrom))
	for _, r := range recordFrom {
		c.recordFrom[r] = true
	}
	c.recorded = nil
	sent = make(map[wire.Rank]uint64, len(c.sentCount))
	for r, n := range c.sentCount {
		sent[r] = n
	}
	recv = make(map[wire.Rank]uint64, len(c.recvCount))
	for r, n := range c.recvCount {
		recv[r] = n
	}
	c.mu.Unlock()
	return pending, sent, recv
}

// SetDead marks a rank failed: sends to it fail fast and receives naming
// it specifically return ErrPeerDead instead of hanging. Driven by
// lightweight view changes.
func (c *Comm) SetDead(rank wire.Rank) {
	c.mu.Lock()
	c.dead[rank] = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Alive returns the ranks not marked dead, ascending.
func (c *Comm) Alive() []wire.Rank {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.Rank, 0, c.cfg.Size)
	for r := 0; r < c.cfg.Size; r++ {
		if !c.dead[wire.Rank(r)] {
			out = append(out, wire.Rank(r))
		}
	}
	return out
}

// Close shuts the communicator down; blocked operations return ErrClosed.
// The NIC is not closed (it belongs to the process runtime).
func (c *Comm) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.onClose != nil {
		c.onClose()
	}
}
