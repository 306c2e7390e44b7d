package ckpt

// Protocol identifies a distributed checkpointing protocol. Starfish can
// run several protocols side by side — one of the paper's design goals —
// so each application selects its protocol at submission time.
type Protocol uint8

// The implemented C/R protocols.
const (
	// StopAndSync is the blocking coordinated protocol of [14] used for
	// the paper's measurements (figures 3 and 4): the coordinator asks
	// every process to stop sending, the processes drain in-flight data
	// messages, everyone dumps state, the coordinator commits the line.
	StopAndSync Protocol = iota + 1
	// ChandyLamport is the non-blocking coordinated snapshot [10]:
	// markers cut the channels, and messages arriving on a channel after
	// the local snapshot but before that channel's marker are recorded
	// as channel state.
	ChandyLamport
	// Independent is uncoordinated checkpointing: every process
	// checkpoints on its own schedule and records message dependencies;
	// restart computes a recovery line (and may suffer the domino
	// effect).
	Independent
)

func (p Protocol) String() string {
	switch p {
	case StopAndSync:
		return "stop-and-sync"
	case ChandyLamport:
		return "chandy-lamport"
	case Independent:
		return "independent"
	default:
		return "unknown-protocol"
	}
}

// Coordinated reports whether the protocol forms its recovery lines at
// checkpoint time (true) or at restart time (false).
func (p Protocol) Coordinated() bool { return p == StopAndSync || p == ChandyLamport }

// Message sub-kinds carried in wire.Msg.Kind for Type=TCheckpoint traffic.
// These messages travel between C/R modules through the daemons (Table 1) —
// except KMarker, which by construction of the Chandy–Lamport protocol must
// travel in-band on the data channels.
const (
	// KRequest: checkpoint coordinator -> participants. Payload: ckpt
	// index (u64) + protocol (u8).
	KRequest uint16 = 0x30
	// KFlush: participant -> participants (stop-and-sync). Payload: the
	// sender's cumulative per-peer sent counts, so receivers know when
	// their channels are drained.
	KFlush uint16 = 0x31
	// KAck: participant -> coordinator. Payload: ckpt index (u64), then
	// whether the participant stored it (bool).
	KAck uint16 = 0x32
	// KCommit: coordinator -> participants. Payload: ckpt index (u64).
	KCommit uint16 = 0x33
	// KMarker: Chandy–Lamport marker, sent on every outgoing data
	// channel. Payload: ckpt index (u64).
	KMarker uint16 = 0x34
	// KRestart: daemon -> process C/R module: restore from the given
	// checkpoint index. Payload: ckpt index (u64).
	KRestart uint16 = 0x35
)
