package daemon

import (
	"fmt"

	"starfish/internal/ckpt"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// Everything daemons agree on travels as a totally ordered multicast on the
// main Starfish group. Each cast carries a one-byte envelope tag choosing
// between lightweight-group operations and replicated cluster commands; the
// commands form the deterministic state machine every daemon applies
// identically (§3.1.1's coherent state via Ensemble's total order).

// Envelope tags.
const (
	envLWG uint8 = 1 // payload: lwg.Op
	envCmd uint8 = 2 // payload: Cmd
)

// CmdKind discriminates replicated cluster commands.
type CmdKind uint8

// Cluster commands.
const (
	// CmdSubmit registers and launches an application. Payload: AppSpec.
	CmdSubmit CmdKind = iota + 1
	// CmdDelete terminates an application and discards its state.
	CmdDelete
	// CmdSuspend pauses an application's processes at their next safe
	// point; CmdResume continues them.
	CmdSuspend
	CmdResume
	// CmdCheckpoint triggers a checkpoint round of the application's
	// configured protocol.
	CmdCheckpoint
	// CmdRankDone records one process's completion (Err empty on
	// success). Gen guards against reports from torn-down incarnations.
	CmdRankDone
	// CmdRestart relaunches an application from a recovery line. Crash
	// recovery, issued by the leader so every daemon uses the same line,
	// keeps surviving ranks where they are (restartPlacement); a manual
	// migration sets Flag and gets a freshly dealt placement.
	CmdRestart
	// CmdSetNodeEnabled includes or excludes a node from future
	// placements (management ENABLE/DISABLE NODE).
	CmdSetNodeEnabled
	// CmdSetParam updates a named cluster parameter.
	CmdSetParam
)

func (k CmdKind) String() string {
	switch k {
	case CmdSubmit:
		return "submit"
	case CmdDelete:
		return "delete"
	case CmdSuspend:
		return "suspend"
	case CmdResume:
		return "resume"
	case CmdCheckpoint:
		return "checkpoint"
	case CmdRankDone:
		return "rank-done"
	case CmdRestart:
		return "restart"
	case CmdSetNodeEnabled:
		return "set-node-enabled"
	case CmdSetParam:
		return "set-param"
	default:
		return fmt.Sprintf("daemon.CmdKind(%d)", uint8(k))
	}
}

// Cmd is one replicated cluster command.
type Cmd struct {
	Kind CmdKind
	App  wire.AppID
	Node wire.NodeID
	Rank wire.Rank
	Gen  uint32
	Err  string
	// Spec is set for CmdSubmit.
	Spec *proc.AppSpec
	// Line is set for CmdRestart.
	Line ckpt.RecoveryLine
	// Key/Value are set for CmdSetParam.
	Key, Value string
	// Flag is the enabled state for CmdSetNodeEnabled, and asks CmdRestart
	// for a fresh deal.
	Flag bool
}

// encodeCmd serializes a command.
func encodeCmd(c *Cmd) []byte {
	w := wire.NewWriter(64)
	w.U8(uint8(c.Kind)).U32(uint32(c.App)).U32(uint32(c.Node))
	w.U32(uint32(c.Rank)).U32(c.Gen).String(c.Err).Bool(c.Flag)
	w.String(c.Key).String(c.Value)
	if c.Spec != nil {
		w.Bytes32(c.Spec.Encode())
	} else {
		w.Bytes32(nil)
	}
	w.U32(uint32(len(c.Line)))
	for _, r := range c.Line.Ranks() {
		w.U32(uint32(r)).U64(c.Line[r])
	}
	return w.Bytes()
}

// decodeCmd parses a command.
func decodeCmd(b []byte) (Cmd, error) {
	r := wire.NewReader(b)
	c := Cmd{
		Kind: CmdKind(r.U8()),
		App:  wire.AppID(r.U32()),
		Node: wire.NodeID(r.U32()),
		Rank: wire.Rank(r.U32()),
		Gen:  r.U32(),
		Err:  r.String(),
		Flag: r.Bool(),
		Key:  r.String(),
	}
	c.Value = r.String()
	if specBytes := r.Bytes32(); len(specBytes) > 0 {
		spec, err := proc.DecodeSpec(specBytes)
		if err != nil {
			return Cmd{}, err
		}
		c.Spec = &spec
	}
	n := r.U32()
	if n > 0 {
		c.Line = make(ckpt.RecoveryLine, n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		rank := wire.Rank(r.U32())
		c.Line[rank] = r.U64()
	}
	if r.Err() != nil {
		return Cmd{}, r.Err()
	}
	return c, nil
}

// envelope wraps a payload with its tag.
func envelope(tag uint8, payload []byte) []byte {
	out := make([]byte, 0, 1+len(payload))
	out = append(out, tag)
	return append(out, payload...)
}

// lwMeta is the metadata a daemon attaches when joining an application's
// lightweight group: the ranks it hosts and their data-path addresses,
// plus — when this daemon created the app's per-group sequencer stream —
// the stream's contact address for the other members to join through.
type lwMeta struct {
	Gen   uint32
	GCS   string // per-group stream contact (creator only; "" otherwise)
	Addrs map[wire.Rank]string
}

func encodeLWMeta(m *lwMeta) []byte {
	w := wire.NewWriter(16)
	w.U32(m.Gen).String(m.GCS)
	w.U32(uint32(len(m.Addrs)))
	for _, p := range sortedAddrPairs(m.Addrs) {
		w.U32(uint32(p.rank)).String(p.addr)
	}
	return w.Bytes()
}

type addrPair struct {
	rank wire.Rank
	addr string
}

func sortedAddrPairs(m map[wire.Rank]string) []addrPair {
	out := make([]addrPair, 0, len(m))
	for r, a := range m {
		out = append(out, addrPair{r, a})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].rank < out[j-1].rank; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func decodeLWMeta(b []byte) (lwMeta, error) {
	r := wire.NewReader(b)
	m := lwMeta{Gen: r.U32(), GCS: r.String()}
	n := r.U32()
	m.Addrs = make(map[wire.Rank]string, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		rank := wire.Rank(r.U32())
		m.Addrs[rank] = r.String()
	}
	return m, r.Err()
}

// encodeRelay wraps a process-level message for transport inside a
// lightweight-group cast (coordination and C/R messages are opaque to the
// daemons, §2.2).
func encodeRelay(m *wire.Msg) []byte {
	buf, err := m.Encode()
	if err != nil {
		return nil
	}
	return buf
}

func decodeRelay(b []byte) (wire.Msg, error) {
	m, _, err := wire.Decode(b)
	if err != nil {
		return wire.Msg{}, err
	}
	return m.Clone(), nil
}
