package vni

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"starfish/internal/wire"
)

// NIC is the per-process network endpoint: it listens on one address,
// maintains connections to peers, and takes in what arrives on them — the
// polling thread of §2.2.1.
//
// The paper's polling thread continuously polls the network and moves
// arrived messages into a queue of received messages, so that (a) an eager
// sender never blocks on an unprepared receiver, and (b) the receive-side
// kernel interaction is overlapped with application work. Here every arrived
// message goes through one intake (take) to the NIC's sink. A connection
// that can push (fastnet, which has no kernel to block in) calls the intake
// from the Send that carries the message, on the sender's goroutine; one
// whose read must block (a TCP socket, chaosnet's fault-injecting wrapper)
// gets a polling goroutine that performs the Recv. Until Deliver installs a
// consumer's own, the sink is the shared received-message queue (Queue);
// either way the application-visible Recv is a plain queue pop, which is
// what makes receive operations fast.
type NIC struct {
	tr    Transport
	local string
	ln    Listener

	mu       sync.Mutex
	conns    map[string]Conn // dialed, by remote listen address
	accepted []Conn          // inbound connections, closed with the NIC
	closed   bool

	// dialing single-flights concurrent Connect calls per address: the
	// first caller dials, the rest wait for its outcome.
	dialing map[string]*dialCall
	// dialCool fail-fasts Connects to an address whose last full dial
	// round failed, so senders to a dead peer do not pay the in-call
	// backoff on every message.
	dialCool map[string]dialCool

	// Dial-retry policy, see SetDialRetry.
	dialAttempts int
	dialBackoff  time.Duration
	dialCooldown time.Duration

	inq chan wire.Msg
	// sink takes one arrived message, see take; false means it did not:
	// the queue is full and wait is false, or (wait true) the sink is being
	// replaced and the message goes to the new one. take calls it under
	// sinkMu.RLock, Deliver replaces it under sinkMu.Lock, so a switch sees
	// no hand-off half done.
	sinkMu sync.RWMutex
	sink   func(m wire.Msg, wait bool) bool
	// switched is closed when Deliver begins — it wakes the intakes blocked
	// on a full inq while holding sinkMu — and installed when the new sink
	// is in, which is what those intakes then wait for.
	switched, installed chan struct{}
	// down carries the address of each dialed peer whose connection closed
	// from the remote side, see PeerDown.
	down chan string
	wg   sync.WaitGroup
	done chan struct{}

	stats Stats
}

// Stats counts traffic through a NIC, keyed by wire message type. It backs
// the Table-1 audit and general diagnostics.
type Stats struct {
	mu        sync.Mutex
	SentMsgs  [8]uint64
	SentBytes [8]uint64
	RecvMsgs  [8]uint64
	RecvBytes [8]uint64
}

func (s *Stats) countSend(t wire.Type, payloadLen int) {
	s.mu.Lock()
	s.SentMsgs[t]++
	s.SentBytes[t] += uint64(payloadLen)
	s.mu.Unlock()
}

// countRecv adds m to the receive counters d times; d = -1 takes back a
// count.
func (s *Stats) countRecv(m *wire.Msg, d int) {
	s.mu.Lock()
	s.RecvMsgs[m.Type] += uint64(d)
	s.RecvBytes[m.Type] += uint64(d * len(m.Payload))
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() (sent, recv [8]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.SentMsgs, s.RecvMsgs
}

// NewNIC creates a NIC listening on addr via tr and starts accepting.
// queueLen sizes the received-message queue (<=0 selects 4096).
func NewNIC(tr Transport, addr string, queueLen int) (*NIC, error) {
	if queueLen <= 0 {
		queueLen = 4096
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	n := &NIC{
		tr:        tr,
		local:     ln.Addr(),
		ln:        ln,
		conns:     make(map[string]Conn),
		dialing:   make(map[string]*dialCall),
		dialCool:  make(map[string]dialCool),
		inq:       make(chan wire.Msg, queueLen),
		switched:  make(chan struct{}),
		installed: make(chan struct{}),
		down:      make(chan string, peerDownBacklog),
		done:      make(chan struct{}),

		dialAttempts: 4,
		dialBackoff:  time.Millisecond,
		dialCooldown: 250 * time.Millisecond,
	}
	n.sink = n.enqueue
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the NIC's bound listen address.
func (n *NIC) Addr() string { return n.local }

// Stats returns the NIC's traffic counters.
func (n *NIC) Stats() *Stats { return &n.stats }

func (n *NIC) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.accepted = append(n.accepted, c)
		n.mu.Unlock()
		n.attach(c, "")
	}
}

// pusher is a Conn that delivers without being polled (fastnet). push hands
// what arrived at this end so far to take, in order, and makes every later
// message go to take on the goroutine that sent it, in send order; it runs
// closed (unless nil) once, when the connection goes down. take(m, false)
// may turn m away rather than block: the connection then keeps m and what
// follows and hands them over in order with take(m, true) from a goroutine
// of its own. After push the end is not Recv'd.
type pusher interface {
	push(take func(m wire.Msg, wait bool) bool, closed func())
}

// attach makes c's arrivals reach take: pushed if c can push, else read by a
// polling goroutine. dialed is the address c is registered under in conns
// ("" for an accepted connection): when c goes down, that registration is
// retired (peerClosed).
func (n *NIC) attach(c Conn, dialed string) {
	var closed func()
	if dialed != "" {
		closed = func() { n.peerClosed(dialed, c) }
	}
	if p, ok := c.(pusher); ok {
		p.push(n.take, closed)
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			m, err := c.Recv()
			if err != nil {
				if closed != nil {
					closed()
				}
				return
			}
			n.take(m, true)
		}
	}()
}

// take is the NIC's one intake: it counts an arrived message and hands it
// to the sink. Unless wait, it takes m only if that needs no waiting — the
// queue has room — and reports whether it did; with wait it returns once m
// is taken, or recycled on shutdown.
func (n *NIC) take(m wire.Msg, wait bool) bool {
	// Counted first: a consumer that has the message sees it counted.
	n.stats.countRecv(&m, 1)
	for {
		n.sinkMu.RLock()
		ok := n.sink(m, wait)
		n.sinkMu.RUnlock()
		switch {
		case ok:
			return true
		case !wait:
			n.stats.countRecv(&m, -1) // the connection keeps m and offers it again
			return false
		}
		<-n.installed
	}
}

// enqueue is the sink a NIC starts with: the received-message queue.
func (n *NIC) enqueue(m wire.Msg, wait bool) bool {
	if !wait {
		select {
		case n.inq <- m:
			return true
		default:
			return false
		}
	}
	select {
	case n.inq <- m:
	case <-n.switched:
		// Deliver wants sinkMu. An intake that picks the queue instead
		// when both are ready is as good: Deliver drains the queue once it
		// has the lock, and this sink is not called again after that.
		return false
	case <-n.done:
		m.Release() // dropped on shutdown: recycle the pooled payload
	}
	return true
}

// Deliver replaces the received-message queue with fn: from here on the
// intake calls fn itself with each message — on the sender's goroutine for
// a pushed connection, on its polling goroutine otherwise — so fn runs
// concurrently across connections and in arrival order within one, and a
// message reaches its consumer with no queue and no goroutine between.
// Messages already queued are passed to fn first, on the caller's goroutine,
// in queue order — ahead of anything that arrives later on their connection
// — and Queue stays empty afterwards. fn owns the message (wire.Msg's
// ownership discipline), must not call Close, and must not send on the data
// path: on a pushed connection it runs inside a sender's Send, which holds
// that connection. A NIC changes consumer once: a second Deliver panics.
func (n *NIC) Deliver(fn func(wire.Msg)) {
	close(n.switched)
	defer close(n.installed)
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	for queued := true; queued; {
		select {
		case m := <-n.inq:
			fn(m)
		default:
			queued = false
		}
	}
	n.sink = func(m wire.Msg, _ bool) bool { fn(m); return true }
}

// peerDownBacklog is how many peer-down notices wait for a reader: one per
// peer of a mid-sized group. The notices are hints, so overflow is dropped.
const peerDownBacklog = 64

// peerClosed retires a dialed connection that went down. If c is still the
// one registered for addr, the remote side closed it (a local Disconnect or
// Close unregisters first): the registration goes, so the next Send redials
// instead of failing on the corpse forever, and the address is reported on
// PeerDown.
func (n *NIC) peerClosed(addr string, c Conn) {
	n.mu.Lock()
	remote := !n.closed && n.conns[addr] == c
	if remote {
		delete(n.conns, addr)
	}
	n.mu.Unlock()
	if !remote {
		return
	}
	c.Close()
	select {
	case n.down <- addr:
	default:
	}
}

// PeerDown reports the listen address of each dialed peer whose connection
// closed from the remote side (a fastnet Crash, a TCP EOF or reset). It is
// evidence for a failure detector, not a verdict — the link may merely have
// flapped, and the next Send redials — and it is best-effort: notices nobody
// reads are dropped.
func (n *NIC) PeerDown() <-chan string { return n.down }

// dialCall single-flights a dial: the owner closes done after setting err.
type dialCall struct {
	done chan struct{}
	err  error
}

// dialCool marks an address whose last full dial round failed; Connects
// before until return err without dialing.
type dialCool struct {
	until time.Time
	err   error
}

// SetDialRetry tunes the dial-retry policy: up to attempts dials per
// Connect with exponential backoff from base (jittered ±50%) between them,
// and a fail-fast cooldown after a fully failed round during which further
// Connects return the cached error immediately. Zero values keep the
// current setting. Call before the NIC is shared between goroutines.
func (n *NIC) SetDialRetry(attempts int, base, cooldown time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if attempts > 0 {
		n.dialAttempts = attempts
	}
	if base > 0 {
		n.dialBackoff = base
	}
	if cooldown > 0 {
		n.dialCooldown = cooldown
	}
}

// Connect ensures a connection to the peer listening at addr, dialing if
// needed. Concurrent Connects to the same address are single-flighted: one
// goroutine dials (with bounded exponential-backoff retry), the rest wait
// for its outcome, so a dial race can never leak a second connection. It
// is idempotent and safe for concurrent use.
func (n *NIC) Connect(addr string) error {
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		if _, ok := n.conns[addr]; ok {
			n.mu.Unlock()
			return nil
		}
		if dc := n.dialing[addr]; dc != nil {
			n.mu.Unlock()
			select {
			case <-dc.done:
			case <-n.done:
				return ErrClosed
			}
			if dc.err != nil {
				return dc.err
			}
			continue // the owner registered the conn; re-check the map
		}
		if cool, ok := n.dialCool[addr]; ok {
			if time.Now().Before(cool.until) {
				n.mu.Unlock()
				return cool.err
			}
			delete(n.dialCool, addr)
		}
		dc := &dialCall{done: make(chan struct{})}
		n.dialing[addr] = dc
		n.mu.Unlock()

		c, err := n.dialRetry(addr)

		n.mu.Lock()
		delete(n.dialing, addr)
		if err != nil {
			n.dialCool[addr] = dialCool{until: time.Now().Add(n.dialCooldown), err: err}
			n.mu.Unlock()
			dc.err = err
			close(dc.done)
			return err
		}
		if n.closed {
			n.mu.Unlock()
			c.Close()
			dc.err = ErrClosed
			close(dc.done)
			return ErrClosed
		}
		n.conns[addr] = c
		n.mu.Unlock()
		close(dc.done)
		n.attach(c, addr)
		return nil
	}
}

// dialRetry dials addr up to dialAttempts times, sleeping an exponentially
// growing, jittered backoff between attempts. Transient outages (a peer
// restarting its listener, an injected dial failure window) are absorbed
// here; a persistent failure is reported after the last attempt and then
// fail-fasted by the Connect cooldown.
func (n *NIC) dialRetry(addr string) (Conn, error) {
	var lastErr error
	for i := 0; i < n.dialAttempts; i++ {
		c, err := n.tr.Dial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if i+1 >= n.dialAttempts {
			break
		}
		d := n.dialBackoff << uint(i)
		// Jitter to ±50% so a cluster's reconnect storms decorrelate.
		d = d/2 + time.Duration(rand.Int63n(int64(d)))
		select {
		case <-time.After(d):
		case <-n.done:
			return nil, ErrClosed
		}
	}
	return nil, lastErr
}

// Send transmits m to the peer at addr, connecting on first use. Pooled
// messages follow the ownership discipline of wire.Msg: on success the
// payload has moved to the transport (or receiver) and m.Payload is nil;
// on failure ownership stays with the caller.
func (n *NIC) Send(addr string, m *wire.Msg) error {
	n.mu.Lock()
	c, ok := n.conns[addr]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		if err := n.Connect(addr); err != nil {
			return err
		}
		n.mu.Lock()
		c = n.conns[addr]
		n.mu.Unlock()
		if c == nil {
			return fmt.Errorf("vni: connect to %q raced with close", addr)
		}
	}
	// Captured before Send: a successful send of a pooled message moves or
	// releases the payload, so its length is unreadable afterwards.
	t, payloadLen := m.Type, len(m.Payload)
	if err := c.Send(m); err != nil {
		return err
	}
	n.stats.countSend(t, payloadLen)
	return nil
}

// Disconnect drops the connection to addr, if any.
func (n *NIC) Disconnect(addr string) {
	n.mu.Lock()
	c := n.conns[addr]
	delete(n.conns, addr)
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Queue exposes the received-message queue fed by the intake.
// Consumers (the group-communication engine, tests) drain it; after Deliver
// it stays empty.
func (n *NIC) Queue() <-chan wire.Msg { return n.inq }

// Close shuts the NIC down: stops accepting, closes all connections, and
// unblocks the polling goroutines and every intake waiting on a full queue.
func (n *NIC) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]Conn, 0, len(n.conns)+len(n.accepted))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	conns = append(conns, n.accepted...)
	n.conns = map[string]Conn{}
	n.accepted = nil
	n.mu.Unlock()

	close(n.done)
	n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return nil
}
