package vni

import (
	"fmt"
	"sync"
	"sync/atomic"

	"starfish/internal/wire"
)

// Fastnet is an in-process transport that stands in for the paper's
// BIP/Myrinet user-level interface. Like BIP, it bypasses the operating
// system kernel completely: a Send performs one payload copy (modelling the
// NIC DMA) and hands the message to the receiving end, with no syscalls and
// no serialization. Once the receiving NIC has taken the connection, that
// hand-off is a call into the NIC's intake on the sending goroutine: with no
// kernel to block in there is nothing for a receive thread to wait for, so
// none stands between a sender and the receiver's matcher.
//
// A Fastnet value is a whole network: addresses are arbitrary strings and
// every node of a simulated cluster dials through the same Fastnet. It also
// provides the failure-injection surface used by the cluster harness —
// crashing an address severs all its connections, which is how node crashes
// become visible to remote failure detectors.
type Fastnet struct {
	mu        sync.Mutex
	listeners map[string]*fastListener
	conns     map[string][]*fastConn // live conns per local address
	queueLen  int
}

// NewFastnet creates an empty in-process network. queueLen (<=0 selects a
// default of 1024) bounds what one direction of a connection holds for a
// reader that is behind — a Recv caller, or a NIC whose received-message
// queue is full — before a Send waits. Until the receiving end has a reader,
// nothing bounds it, so a sender never waits for the accept.
func NewFastnet(queueLen int) *Fastnet {
	if queueLen <= 0 {
		queueLen = 1024
	}
	return &Fastnet{
		listeners: make(map[string]*fastListener),
		conns:     make(map[string][]*fastConn),
		queueLen:  queueLen,
	}
}

// Name implements Transport.
func (f *Fastnet) Name() string { return "fastnet" }

// Listen implements Transport. Each address may have one listener.
func (f *Fastnet) Listen(addr string) (Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[addr]; ok {
		return nil, fmt.Errorf("vni: address %q already in use", addr)
	}
	l := &fastListener{
		net:     f,
		addr:    addr,
		backlog: make(chan *fastConn, 64),
		done:    make(chan struct{}),
	}
	f.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (f *Fastnet) Dial(addr string) (Conn, error) {
	f.mu.Lock()
	l, ok := f.listeners[addr]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRoute, addr)
	}
	link := &fastLink{}
	for i := range link.pipes {
		p := &link.pipes[i]
		p.cond.L = &p.mu
		p.limit = f.queueLen
	}
	dialSide := &fastConn{link: link, remote: addr, in: &link.pipes[1], out: &link.pipes[0]}
	acceptSide := &fastConn{link: link, local: addr, in: &link.pipes[0], out: &link.pipes[1]}
	select {
	case l.backlog <- acceptSide:
	case <-l.done:
		return nil, ErrClosed
	}
	select {
	case <-l.done:
		// The listener closed as we queued: its Close may already have
		// swept the backlog, so nobody would ever accept this one.
		acceptSide.Close()
		return nil, ErrClosed
	default:
	}
	f.track(acceptSide)
	return dialSide, nil
}

func (f *Fastnet) track(c *fastConn) {
	f.mu.Lock()
	f.conns[c.local] = append(f.conns[c.local], c)
	f.mu.Unlock()
}

// Crash severs every listener and connection rooted at addr, simulating a
// node failure: peers' Sends and Recvs fail immediately, and NICs that
// dialed addr see the close, exactly as a dead NIC looks to a remote
// failure detector.
func (f *Fastnet) Crash(addr string) {
	f.mu.Lock()
	l := f.listeners[addr]
	delete(f.listeners, addr)
	conns := f.conns[addr]
	delete(f.conns, addr)
	f.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

type fastListener struct {
	net     *Fastnet
	addr    string
	backlog chan *fastConn
	done    chan struct{}
	once    sync.Once
}

func (l *fastListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close stops accepting and closes the connections nobody accepted, so
// their dialers see the close instead of sending into them forever.
func (l *fastListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *fastListener) Addr() string { return l.addr }

// fastLink is what the two ends of a connection share: one pipe per
// direction, and whether it is closed — closing either end closes both.
type fastLink struct {
	closed atomic.Bool
	pipes  [2]fastPipe // [0] dialer → acceptor, [1] acceptor → dialer
}

// fastPipe is one direction of a connection, the intake of the end that
// reads it. Until that end has a sink (pusher), arrivals wait in q for Recv
// or for the install, which hands them over first. With a sink, Send calls
// it under mu, so a direction delivers in send order, concurrent senders
// included, and q holds only a message the sink turned away and those sent
// after it: a drain goroutine hands them over in order while senders queue
// behind, and exits once q is empty.
type fastPipe struct {
	mu   sync.Mutex
	cond sync.Cond // q grew or shrank, or the link closed
	q    msgQueue
	// limit bounds q once the end has a reader (full).
	limit    int
	sink     func(m wire.Msg, wait bool) bool
	onClose  func()
	draining bool
	polled   bool // Recv has been called
}

// full reports whether a sender must wait for the reader. Before the end
// has a reader nothing waits: the install hands over what piled up.
func (p *fastPipe) full() bool {
	return (p.sink != nil || p.polled) && p.q.len() >= p.limit
}

// put hands m to the reading end: to the sink if nothing waits ahead of it,
// else behind what does. Called with mu held.
func (p *fastPipe) put(m wire.Msg) {
	switch {
	case p.sink == nil:
		p.q.push(m)
		p.cond.Broadcast() // a Recv may be waiting
	case p.draining:
		p.q.push(m)
	case !p.sink(m, false):
		p.q.push(m)
		p.startDrain()
	}
}

// flush hands q to the newly installed sink, in order, until the sink turns
// one away; the drain takes over from there. Called with mu held.
func (p *fastPipe) flush() {
	for p.q.len() > 0 {
		if !p.sink(p.q.peek(), false) {
			p.startDrain()
			return
		}
		p.q.pop()
	}
}

func (p *fastPipe) startDrain() {
	p.draining = true
	//starfish:allow goleak the drain ends when q is empty, and each of its hand-offs returns once the sink takes the message or its NIC closes
	go p.drain()
}

// drain hands q to the sink in order, waiting wherever the sink must, and
// ends when q is empty. Senders queue behind it meanwhile, so a direction
// never has two hand-offs under way.
func (p *fastPipe) drain() {
	p.mu.Lock()
	for p.q.len() > 0 {
		m, sink := p.q.pop(), p.sink
		p.cond.Broadcast() // room for a sender waiting on a full q
		p.mu.Unlock()
		sink(m, true)
		p.mu.Lock()
	}
	p.draining = false
	p.mu.Unlock()
}

// msgQueue is a FIFO of messages that reuses its array once emptied.
type msgQueue struct {
	buf  []wire.Msg
	head int
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) push(m wire.Msg) { q.buf = append(q.buf, m) }

func (q *msgQueue) peek() wire.Msg { return q.buf[q.head] }

func (q *msgQueue) pop() wire.Msg {
	m := q.buf[q.head]
	q.buf[q.head] = wire.Msg{}
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

// fastConn is one end of an in-process connection: it reads pipe in and
// writes pipe out.
type fastConn struct {
	link    *fastLink
	local   string
	remote  string
	in, out *fastPipe
}

func (c *fastConn) Send(m *wire.Msg) error {
	// Closed connections pay nothing: no copy, no stats count.
	if c.link.closed.Load() {
		return ErrClosed
	}
	var out wire.Msg
	if m.Pooled {
		// Move semantics: ownership of the pooled payload transfers to
		// the receiver on a successful hand-off — the zero-copy transfer
		// that models BIP's user-level interface.
		out = *m
	} else {
		// One payload copy models the DMA into the NIC and guarantees
		// the caller can reuse its buffer, mirroring MPI send semantics.
		// The copy is a pool buffer the receiver owns, as every payload
		// TCP's ReadMsgBuf delivers is.
		out = m.PooledClone()
	}
	p := c.out
	p.mu.Lock()
	for p.full() && !c.link.closed.Load() {
		p.cond.Wait()
	}
	if c.link.closed.Load() {
		p.mu.Unlock()
		if !m.Pooled {
			out.Release() // our copy; a moved payload stays the caller's
		}
		return ErrClosed
	}
	p.put(out)
	p.mu.Unlock()
	if m.Pooled {
		// The receiver owns the payload now; strip the sender's reference
		// so a retry loop cannot resend a moved buffer.
		m.Payload = nil
		m.Pooled = false
	}
	wire.CountMsg(out.Type)
	return nil
}

func (c *fastConn) Recv() (wire.Msg, error) {
	p := c.in
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polled = true
	// Messages that arrived before a close are still delivered, as from
	// TCP's receive buffer.
	for p.q.len() == 0 {
		if c.link.closed.Load() {
			return wire.Msg{}, ErrClosed
		}
		p.cond.Wait()
	}
	m := p.q.pop()
	p.cond.Broadcast() // room for a sender waiting on a full q
	return m, nil
}

// push implements pusher.
func (c *fastConn) push(sink func(m wire.Msg, wait bool) bool, closed func()) {
	p := c.in
	p.mu.Lock()
	p.sink = sink
	p.flush() // what arrived before the install goes first
	down := c.link.closed.Load()
	if !down {
		p.onClose = closed
	}
	p.mu.Unlock()
	if down && closed != nil {
		closed()
	}
}

// Close closes both ends, wakes every sender and receiver waiting on either
// direction, and runs each end's close callback once.
func (c *fastConn) Close() error {
	if !c.link.closed.CompareAndSwap(false, true) {
		return nil
	}
	for i := range c.link.pipes {
		p := &c.link.pipes[i]
		p.mu.Lock()
		closed := p.onClose
		p.onClose = nil
		p.cond.Broadcast()
		p.mu.Unlock()
		if closed != nil {
			closed()
		}
	}
	return nil
}

func (c *fastConn) RemoteAddr() string { return c.remote }
