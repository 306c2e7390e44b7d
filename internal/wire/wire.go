// Package wire defines the message taxonomy and binary encoding used by all
// Starfish components.
//
// The message types mirror Table 1 of the paper: control messages travel
// between daemons, coordination and checkpoint/restart messages travel
// between application processes through the daemons, data messages travel
// on the fast path between MPI modules, lightweight-membership messages
// travel between a daemon's lightweight endpoint module and its application
// process, and configuration messages travel between a local daemon and its
// application process.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Type classifies a message per Table 1 of the paper.
type Type uint8

// The six Starfish message types.
const (
	TInvalid Type = iota
	// TControl messages are exchanged solely between Starfish daemons
	// (cluster configuration, spawn requests, health reports).
	TControl
	// TCoordination messages are exchanged between application processes,
	// relayed through daemons and the lightweight group.
	TCoordination
	// TData messages carry user MPI payloads on the fast path
	// (application -> MPI module -> VNI), never through the object bus.
	TData
	// TLWMembership messages inform an application process of lightweight
	// view changes, and let a process leave its lightweight group.
	TLWMembership
	// TConfiguration messages synchronize an application process with its
	// local daemon at initialization/termination and carry settings.
	TConfiguration
	// TCheckpoint messages are exchanged by checkpoint/restart modules
	// through the daemons; they are opaque to the daemons themselves.
	TCheckpoint

	typeCount
)

// String returns the Table-1 name of the message type.
func (t Type) String() string {
	switch t {
	case TControl:
		return "control"
	case TCoordination:
		return "coordination"
	case TData:
		return "data"
	case TLWMembership:
		return "lightweight-membership"
	case TConfiguration:
		return "configuration"
	case TCheckpoint:
		return "checkpoint/restart"
	default:
		return fmt.Sprintf("wire.Type(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the six defined message types.
func (t Type) Valid() bool { return t > TInvalid && t < typeCount }

// Endpoint classifies the software component that sends or receives a
// message. It exists so the Table-1 routing matrix can be audited at runtime.
type Endpoint uint8

// Endpoint kinds, matching the architecture boxes in Figure 1.
const (
	EInvalid    Endpoint = iota
	EDaemon              // a Starfish daemon (management or membership module)
	ELWEndpoint          // a lightweight endpoint module inside a daemon
	EProcess             // an application process (group handler / app module)
	EMPIModule           // the MPI module, fast-path termination point
	ECRModule            // a checkpoint/restart module
	endpointCount
)

// String returns a short human-readable endpoint name.
func (e Endpoint) String() string {
	switch e {
	case EDaemon:
		return "daemon"
	case ELWEndpoint:
		return "lw-endpoint"
	case EProcess:
		return "process"
	case EMPIModule:
		return "mpi-module"
	case ECRModule:
		return "cr-module"
	default:
		return fmt.Sprintf("wire.Endpoint(%d)", uint8(e))
	}
}

// route is a legal (sender, receiver) endpoint pair for a message type.
type route struct{ from, to Endpoint }

// legalRoutes encodes Table 1: for each message type, the endpoint pairs
// allowed to exchange it. Daemons relay coordination and C/R messages, so
// daemon endpoints appear as legal intermediate hops for those types.
var legalRoutes = map[Type][]route{
	TControl: {{EDaemon, EDaemon}},
	TCoordination: {
		{EProcess, EDaemon}, {EDaemon, EDaemon}, {EDaemon, EProcess},
		{EProcess, EProcess},
	},
	TData: {{EMPIModule, EMPIModule}},
	TLWMembership: {
		{ELWEndpoint, EProcess}, {EProcess, ELWEndpoint},
	},
	TConfiguration: {
		{EDaemon, EProcess}, {EProcess, EDaemon},
	},
	TCheckpoint: {
		{ECRModule, EDaemon}, {EDaemon, EDaemon}, {EDaemon, ECRModule},
		{ECRModule, ECRModule},
	},
}

// LegalRoute reports whether Table 1 permits a message of type t to travel
// from endpoint kind `from` to endpoint kind `to`.
func LegalRoute(t Type, from, to Endpoint) bool {
	for _, r := range legalRoutes[t] {
		if r.from == from && r.to == to {
			return true
		}
	}
	return false
}

// AppID identifies a running application within the cluster. Zero means
// "no application" (pure system traffic).
type AppID uint32

// NodeID identifies a cluster node (equivalently, its daemon).
type NodeID uint32

// Rank is an MPI rank within an application's lightweight group.
type Rank int32

// AnyRank matches any source rank in receive operations (MPI_ANY_SOURCE).
const AnyRank Rank = -1

// AnyTag matches any tag in receive operations (MPI_ANY_TAG).
const AnyTag int32 = -1

// Msg is the unit of communication between Starfish components.
//
// For data messages Src/Dst are MPI ranks within App's lightweight group;
// for system messages they identify nodes (cast from NodeID). Seq carries
// transport- or protocol-level sequence numbers; Kind is a protocol-specific
// sub-type (e.g. which C/R protocol message this is).
//
// # Payload ownership
//
// Pooled marks Payload as checked out of the global BufPool, with exactly
// one owner at any time. Ownership moves with the message along the fast
// path: a transport Send takes ownership of a pooled payload (the caller
// must not reuse the buffer afterwards — this is what makes the path
// zero-copy), and whoever finally consumes a pooled message calls Release
// exactly once. Dropping a pooled message without Release is safe (the
// buffer is garbage-collected, the pool just misses a reuse). Messages with
// Pooled == false keep the historical semantics: Send copies or serializes
// the payload before returning and the caller may reuse its buffer.
type Msg struct {
	Type    Type
	Kind    uint16 // protocol-specific sub-type
	App     AppID
	Src     Rank
	Dst     Rank
	Tag     int32
	Seq     uint64
	Payload []byte
	// Pooled reports that Payload is owned via the BufPool ownership
	// discipline above. It is transport metadata, not part of the wire
	// encoding.
	Pooled bool
}

// Release returns a pool-owned payload to the BufPool and clears the
// message's payload fields. It is a no-op for non-pooled or nil payloads,
// and safe to call on an already-released Msg value (but never on two Msg
// values sharing one pooled payload — that is a double release, caught by
// the guard mode under `go test`).
func (m *Msg) Release() {
	if m.Pooled && m.Payload != nil {
		PutBuf(m.Payload)
	}
	m.Payload = nil
	m.Pooled = false
}

const headerLen = 1 + 2 + 4 + 4 + 4 + 4 + 8 + 4 // fields above, payload length last

// MaxPayload bounds the payload of a single framed message (16 MiB). Larger
// application buffers are fragmented by the MPI layer.
const MaxPayload = 16 << 20

// ErrPayloadTooLarge is returned when encoding a message whose payload
// exceeds MaxPayload.
var ErrPayloadTooLarge = errors.New("wire: payload exceeds MaxPayload")

// ErrBadFrame is returned when a decoded frame is structurally invalid.
var ErrBadFrame = errors.New("wire: malformed frame")

// EncodedLen returns the number of bytes Encode will produce for m.
func (m *Msg) EncodedLen() int { return headerLen + len(m.Payload) }

// AppendEncode appends the wire encoding of m to buf and returns the
// extended slice. The encoding is fixed-width big-endian; it is the framing
// used on every TCP connection and by the in-process transports when they
// exercise the serialization path.
func (m *Msg) AppendEncode(buf []byte) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return buf, ErrPayloadTooLarge
	}
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint16(buf, m.Kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.App))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Dst))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Tag))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf, nil
}

// HeaderLen is the fixed size of a frame header.
const HeaderLen = headerLen

// EncodeHeader writes m's fixed-size frame header (including the payload
// length) into hdr, which must be at least HeaderLen bytes. It lets
// transports send header and payload as two vectored writes with no
// intermediate frame allocation.
func (m *Msg) EncodeHeader(hdr []byte) error {
	if len(hdr) < headerLen {
		return ErrShortBuffer
	}
	if len(m.Payload) > MaxPayload {
		return ErrPayloadTooLarge
	}
	hdr[0] = byte(m.Type)
	binary.BigEndian.PutUint16(hdr[1:], m.Kind)
	binary.BigEndian.PutUint32(hdr[3:], uint32(m.App))
	binary.BigEndian.PutUint32(hdr[7:], uint32(m.Src))
	binary.BigEndian.PutUint32(hdr[11:], uint32(m.Dst))
	binary.BigEndian.PutUint32(hdr[15:], uint32(m.Tag))
	binary.BigEndian.PutUint64(hdr[19:], m.Seq)
	binary.BigEndian.PutUint32(hdr[27:], uint32(len(m.Payload)))
	return nil
}

// DecodeHeader parses a fixed-size frame header, returning the message
// metadata (Payload nil) and the frame's payload length. It validates the
// type byte and the length bound but does not touch payload bytes, so
// stream readers can decode straight from the two reads of a frame without
// restitching header and payload into one buffer.
func DecodeHeader(hdr []byte) (Msg, int, error) {
	if len(hdr) < headerLen {
		return Msg{}, 0, ErrBadFrame
	}
	var m Msg
	m.Type = Type(hdr[0])
	if !m.Type.Valid() {
		return Msg{}, 0, fmt.Errorf("%w: type %d", ErrBadFrame, hdr[0])
	}
	m.Kind = binary.BigEndian.Uint16(hdr[1:])
	m.App = AppID(binary.BigEndian.Uint32(hdr[3:]))
	m.Src = Rank(binary.BigEndian.Uint32(hdr[7:]))
	m.Dst = Rank(binary.BigEndian.Uint32(hdr[11:]))
	m.Tag = int32(binary.BigEndian.Uint32(hdr[15:]))
	m.Seq = binary.BigEndian.Uint64(hdr[19:])
	n := binary.BigEndian.Uint32(hdr[27:])
	if n > MaxPayload {
		return Msg{}, 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	return m, int(n), nil
}

// Encode returns the wire encoding of m.
func (m *Msg) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, m.EncodedLen()))
}

// Decode parses one message from buf, returning the message and the number
// of bytes consumed. The returned message's Payload aliases buf.
func Decode(buf []byte) (Msg, int, error) {
	if len(buf) < headerLen {
		return Msg{}, 0, ErrBadFrame
	}
	m, n, err := DecodeHeader(buf)
	if err != nil {
		return Msg{}, 0, err
	}
	if len(buf) < headerLen+n {
		return Msg{}, 0, ErrBadFrame
	}
	if n > 0 {
		m.Payload = buf[headerLen : headerLen+n : headerLen+n]
	}
	return m, headerLen + n, nil
}

// WriteMsg writes the framed encoding of m to w as two vectored writes
// (header from a stack buffer, then the payload), with no intermediate
// frame allocation. Callers that need frames coalesced into one stream
// write should hand WriteMsg a buffered writer.
func WriteMsg(w io.Writer, m *Msg) error {
	var hdr [headerLen]byte
	if err := m.EncodeHeader(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) == 0 {
		return nil
	}
	_, err := w.Write(m.Payload)
	return err
}

// ReadMsg reads one framed message from r. The returned message owns its
// payload (no aliasing of internal buffers). The header is decoded straight
// from a stack buffer and only the payload hits the heap.
func ReadMsg(r io.Reader) (Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, err
	}
	m, n, err := DecodeHeader(hdr[:])
	if err != nil {
		return Msg{}, err
	}
	if n == 0 {
		return m, nil
	}
	m.Payload = make([]byte, n)
	if _, err := io.ReadFull(r, m.Payload); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// ReadMsgBuf is ReadMsg with the payload placed in a buffer checked out of
// the global BufPool: the returned message is pool-owned (Pooled == true)
// and its final consumer should call Release. This is the per-connection
// receive path — together with BufPool recycling it makes a stream read
// allocation-free in the steady state.
func ReadMsgBuf(r io.Reader) (Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, err
	}
	m, n, err := DecodeHeader(hdr[:])
	if err != nil {
		return Msg{}, err
	}
	if n == 0 {
		return m, nil
	}
	m.Payload = GetBuf(n)
	m.Pooled = true
	if _, err := io.ReadFull(r, m.Payload); err != nil {
		m.Release()
		return Msg{}, err
	}
	return m, nil
}

// PooledClone returns a deep copy of m whose payload is a buffer checked out
// of the global BufPool: the copy is pool-owned (Pooled), and its final
// consumer should call Release, as for a payload ReadMsgBuf read.
func (m *Msg) PooledClone() Msg {
	c := *m
	c.Payload, c.Pooled = nil, false
	if len(m.Payload) > 0 {
		CountCopy(CopyClone, len(m.Payload))
		c.Payload = GetBuf(len(m.Payload))
		copy(c.Payload, m.Payload)
		c.Pooled = true
	}
	return c
}

// Clone returns a deep copy of m: its payload no longer aliases any buffer
// and is not pool-owned.
func (m *Msg) Clone() Msg {
	c := *m
	c.Pooled = false
	if m.Payload != nil {
		CountCopy(CopyClone, len(m.Payload))
		c.Payload = append([]byte(nil), m.Payload...)
	}
	return c
}
