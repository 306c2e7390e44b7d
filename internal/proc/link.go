package proc

import (
	"errors"

	"starfish/internal/wire"
)

// ErrLinkClosed is returned when sending on a closed daemon link.
var ErrLinkClosed = errors.New("proc: daemon link closed")

// DaemonLink is the connection between an application process's group
// handler and its daemon's lightweight endpoint module (the paper's local
// TCP connection). The simulated cluster uses an in-process link; a real
// deployment would frame wire messages over TCP.
type DaemonLink interface {
	// Send transmits a message from the process to the daemon.
	Send(m wire.Msg) error
	// Recv exposes messages from the daemon to the process.
	Recv() <-chan wire.Msg
	// Done is closed when the link goes down.
	Done() <-chan struct{}
	// Close tears the link down (both directions).
	Close()
}

// ChanLink is an in-process DaemonLink. NewChanLink returns the two
// half-views: one for the process, one for the daemon's endpoint module.
type ChanLink struct {
	out    chan<- wire.Msg
	in     <-chan wire.Msg
	closed chan struct{}
	other  *ChanLink
}

// NewChanLink creates a connected link pair (process side, daemon side).
func NewChanLink(buf int) (*ChanLink, *ChanLink) {
	if buf <= 0 {
		buf = 256
	}
	a2b := make(chan wire.Msg, buf)
	b2a := make(chan wire.Msg, buf)
	closed := make(chan struct{})
	p := &ChanLink{out: a2b, in: b2a, closed: closed}
	d := &ChanLink{out: b2a, in: a2b, closed: closed}
	p.other = d
	d.other = p
	return p, d
}

// Send implements DaemonLink.
func (l *ChanLink) Send(m wire.Msg) error {
	wire.CountMsg(m.Type)
	select {
	case <-l.closed:
		return ErrLinkClosed
	default:
	}
	select {
	case l.out <- m:
		return nil
	case <-l.closed:
		return ErrLinkClosed
	}
}

// Recv implements DaemonLink.
func (l *ChanLink) Recv() <-chan wire.Msg { return l.in }

// Done implements DaemonLink.
func (l *ChanLink) Done() <-chan struct{} { return l.closed }

// Close implements DaemonLink. Closing either side closes both.
func (l *ChanLink) Close() {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
}
