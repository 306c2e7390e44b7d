// Package gcs is the group communication substrate of Starfish — the
// stand-in for the Ensemble toolkit the paper builds on.
//
// It provides process groups with virtual synchrony semantics: a totally
// ordered, reliable multicast; removal of members an injected Detector
// declares dead; and view events that every surviving member delivers at
// the same point of the message stream. Views and application casts travel
// through the same sequencer, so "membership change" is just another
// totally ordered message — which is what makes the replicated daemon state
// machine of §3.1.1 trivial to keep coherent.
//
// The implementation uses a coordinator/sequencer: the lowest-id member of
// the current view sequences all multicasts and membership changes. When
// the coordinator fails, the surviving member with the lowest id runs a
// synchronization round (collecting every member's delivered suffix,
// re-broadcasting messages not yet seen everywhere) before installing the
// next view — the classic flush giving virtual synchrony.
package gcs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// EventKind discriminates the events a group endpoint delivers.
type EventKind uint8

// Event kinds.
const (
	// EView announces a new view. Every member delivers the same sequence
	// of views interleaved identically with casts.
	EView EventKind = iota + 1
	// ECast delivers a totally ordered multicast.
	ECast
	// ESend delivers a point-to-point message from another member. Sends
	// are FIFO per sender but not ordered relative to casts.
	ESend
)

// Event is what the group delivers to its user, in order, on Events().
type Event struct {
	Kind EventKind
	// View is set for EView events.
	View View
	// From is the sending member for ECast and ESend.
	From wire.NodeID
	// Payload is the application bytes for ECast and ESend.
	Payload []byte
	// State carries the state-transfer snapshot; set only on the first
	// EView a joining member receives (captured by the coordinator's
	// StateProvider at join time).
	State []byte
}

// View is a group membership epoch.
type View struct {
	// ID increases by one per installed view.
	ID uint64
	// Coord is the sequencer of this view (lowest member id).
	Coord wire.NodeID
	// Members lists the member ids in ascending order.
	Members []wire.NodeID
	// Addrs maps each member to its transport listen address.
	Addrs map[wire.NodeID]string
}

// Contains reports whether node is a member of the view.
func (v *View) Contains(node wire.NodeID) bool {
	for _, m := range v.Members {
		if m == node {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the view.
func (v *View) Clone() View {
	c := View{ID: v.ID, Coord: v.Coord}
	c.Members = append([]wire.NodeID(nil), v.Members...)
	c.Addrs = make(map[wire.NodeID]string, len(v.Addrs))
	for k, a := range v.Addrs {
		c.Addrs[k] = a
	}
	return c
}

func (v *View) String() string {
	return fmt.Sprintf("view{id=%d coord=%d members=%v}", v.ID, v.Coord, v.Members)
}

// Config parameterizes one group endpoint.
type Config struct {
	// Node is this member's unique id. Lower ids win coordinator election.
	Node wire.NodeID
	// Transport is the network to use (shared Fastnet in simulation, TCP
	// between real daemons).
	Transport vni.Transport
	// Addr is the listen address for this endpoint.
	Addr string
	// Contact is the address of any current member; empty creates a new
	// singleton group.
	Contact string
	// HeartbeatEvery paces the engine's periodic duties — re-forwarding
	// unconfirmed casts, repairing delivery gaps, the coordinator's beacon
	// — and is how often a Detector that keeps no timers of its own is
	// read; it is also the fail-fast window of a dial that found nobody
	// listening (default 25ms).
	HeartbeatEvery time.Duration
	// FailAfter bounds how long a failover candidate waits for sync
	// responses and paces the coordinator's gap beacon (default 8 ticks).
	// Detection latency itself belongs to the Detector.
	FailAfter time.Duration
	// Detector is the group's one source of failure verdicts; nil means
	// nobody is ever declared dead (members still come and go by Leave).
	Detector Detector
	// StateProvider, if non-nil, is called on the coordinator when a new
	// member joins; its snapshot is handed to the joiner with its first
	// view (state transfer).
	StateProvider func() []byte
	// Events optionally receives structured records about view changes,
	// suspicions and elections. The sink is expected to tag the component
	// (the daemon passes its store's "gcs" emitter).
	Events evstore.Sink
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatEvery <= 0 {
		out.HeartbeatEvery = 25 * time.Millisecond
	}
	if out.FailAfter <= 0 {
		out.FailAfter = 8 * out.HeartbeatEvery
	}
	if out.Detector == nil {
		out.Detector = new(Verdicts) // a set nobody ever adds to
	}
	return out
}

// Errors returned by the endpoint API.
var (
	ErrLeft     = errors.New("gcs: endpoint has left the group")
	ErrNoMember = errors.New("gcs: destination is not a group member")
	ErrJoin     = errors.New("gcs: join failed")
)

// ---- internal protocol ----

// Sub-kinds carried in wire.Msg.Kind for Type=TControl gcs traffic.
const (
	kJoinReq  uint16 = 0x10 // joiner -> contact -> coordinator
	kWelcome  uint16 = 0x11 // coordinator -> joiner (first view + state)
	kMcastReq uint16 = 0x12 // member -> coordinator
	kDeliver  uint16 = 0x13 // coordinator -> all (sequenced cast or view)
	kBeacon   uint16 = 0x14 // coordinator -> all (highest sequenced slot)
	kP2P      uint16 = 0x15 // member -> member direct
	kSyncReq  uint16 = 0x16 // failover candidate -> survivors
	kSyncResp uint16 = 0x17 // survivor -> candidate
	kLeave    uint16 = 0x18 // departing member -> coordinator
	// kRetransReq asks the coordinator to resend sequenced messages above
	// the sender's delivered horizon — the gap-repair path that lets the
	// group make progress when kDeliver traffic is lost on the wire.
	kRetransReq uint16 = 0x19 // member -> coordinator (payload: delivered)
	// kGossip carries one of the Detector's own protocol messages,
	// multiplexed over the group endpoint's transport.
	kGossip uint16 = 0x20 // member <-> member (payload: detector message)
)

// retransBatch bounds how many log entries one kRetransReq resends, so a
// member far behind catches up in bursts rather than one giant storm.
const retransBatch = 64

// deliverKind discriminates sequenced messages.
const (
	dCast uint8 = 1
	dView uint8 = 2
)

// seqMsg is one sequenced (totally ordered) message as stored in the
// retransmission log and carried by kDeliver.
type seqMsg struct {
	Seq       uint64
	Kind      uint8 // dCast or dView
	Sender    wire.NodeID
	SenderSeq uint64
	Payload   []byte // cast payload, or encoded view for dView
}

func encodeSeqMsg(m *seqMsg) []byte {
	w := wire.NewWriter(32 + len(m.Payload))
	w.U64(m.Seq).U8(m.Kind).U32(uint32(m.Sender)).U64(m.SenderSeq).Bytes32(m.Payload)
	return w.Bytes()
}

func decodeSeqMsg(b []byte) (seqMsg, error) {
	r := wire.NewReader(b)
	m := seqMsg{
		Seq:       r.U64(),
		Kind:      r.U8(),
		Sender:    wire.NodeID(r.U32()),
		SenderSeq: r.U64(),
	}
	m.Payload = append([]byte(nil), r.Bytes32()...)
	return m, r.Err()
}

func encodeView(v *View) []byte {
	w := wire.NewWriter(64)
	w.U64(v.ID).U32(uint32(v.Coord)).U32(uint32(len(v.Members)))
	for _, m := range v.Members {
		w.U32(uint32(m)).String(v.Addrs[m])
	}
	return w.Bytes()
}

func decodeView(b []byte) (View, error) {
	r := wire.NewReader(b)
	v := View{ID: r.U64(), Coord: wire.NodeID(r.U32())}
	n := r.Count(8) // a member is at least its id and an address length
	v.Addrs = make(map[wire.NodeID]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := wire.NodeID(r.U32())
		v.Members = append(v.Members, id)
		v.Addrs[id] = r.String()
	}
	return v, r.Err()
}

// sortMembers orders ids ascending (coordinator = first).
func sortMembers(ms []wire.NodeID) {
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
}
