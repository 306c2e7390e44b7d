// Package vni implements the Virtual Network Interface of a Starfish
// application process.
//
// The VNI isolates the rest of the system from the concrete network. The
// paper supports Myrinet through the BIP user-level interface (for
// performance) and plain TCP/IP (for convenience); porting to another
// network only requires a thin transport layer. This package provides the
// same split: a real TCP transport (kernel socket path) and an in-process
// "fastnet" transport that stands in for BIP/Myrinet by avoiding the kernel
// entirely. The polling thread of §2.2.1 is the NIC's one intake feeding a
// single received-message queue: a fastnet Send calls it on the sending
// goroutine, and a TCP connection has a receive goroutine that does.
package vni

import (
	"errors"

	"starfish/internal/wire"
)

// ErrClosed is returned by operations on a closed connection, listener or
// NIC.
var ErrClosed = errors.New("vni: closed")

// ErrNoRoute is returned when dialing an address nobody listens on.
var ErrNoRoute = errors.New("vni: no route to address")

// Conn is a bidirectional, reliable, ordered message connection. Send and
// Recv may be used concurrently with each other; concurrent Sends are
// serialized internally.
type Conn interface {
	// Send transmits one message. For non-pooled messages the payload is
	// copied (or serialized) before Send returns, so the caller may reuse
	// its buffer. For pooled messages (m.Pooled, see wire.Msg) Send takes
	// ownership on success — the payload moves to the receiver or back to
	// the BufPool with no copy, and m.Payload is nil when Send returns.
	// On error, ownership of a pooled payload stays with the caller (so
	// retry loops can resend), and a closed connection does no work at
	// all: no copy, no stats count.
	Send(m *wire.Msg) error
	// Recv blocks for the next message. It returns ErrClosed (or an
	// underlying transport error) once the connection is down. Serialized
	// transports deliver pool-owned payloads (wire.ReadMsgBuf); the final
	// consumer of a message should call Release.
	Recv() (wire.Msg, error)
	// Close tears the connection down, unblocking pending Recvs on both
	// ends.
	Close() error
	// RemoteAddr returns the peer's listen address if known, else the
	// transport-specific remote identity.
	RemoteAddr() string
}

// Listener accepts inbound connections on a transport address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the bound address (useful when listening on port 0).
	Addr() string
}

// Transport creates listeners and connections. Implementations: NewTCP
// (kernel sockets) and NewFastnet (in-process, BIP/Myrinet stand-in).
type Transport interface {
	// Name identifies the transport ("tcp" or "fastnet") in diagnostics
	// and benchmark output.
	Name() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}
