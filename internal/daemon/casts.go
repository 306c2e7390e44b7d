package daemon

import (
	"fmt"
	"slices"

	"starfish/internal/ckpt"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// Everything daemons agree on travels as a totally ordered multicast on the
// main Starfish group, and every such cast is one Cmd: the commands form the
// deterministic state machine every daemon applies identically (§3.1.1's
// coherent state via Ensemble's total order). Scoped casts never ride the
// main group; they travel on each application's own stream (lwg.Router).

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
	// CmdJoin announces that Node hosts ranks of the app's generation Gen:
	// their data addresses (Addrs) and, from the app's stream creator, the
	// stream's Contact. A host casts it only once its own stream endpoint
	// joined, so when every host's join has applied the app can start.
	CmdJoin
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
	case CmdJoin:
		return "join"
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
	// Addrs and Contact are set for CmdJoin.
	Addrs   map[wire.Rank]string
	Contact string
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
	ranks := make([]wire.Rank, 0, len(c.Addrs))
	for r := range c.Addrs {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	w.String(c.Contact).U32(uint32(len(ranks)))
	for _, r := range ranks {
		w.U32(uint32(r)).String(c.Addrs[r])
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
	// Counts are bounded by the bytes left: a rank entry is at least 12
	// bytes, an address entry 8.
	if n := r.Count(12); n > 0 {
		c.Line = make(ckpt.RecoveryLine, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rank := wire.Rank(r.U32())
			c.Line[rank] = r.U64()
		}
	}
	c.Contact = r.String()
	if n := r.Count(8); n > 0 {
		c.Addrs = make(map[wire.Rank]string, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rank := wire.Rank(r.U32())
			c.Addrs[rank] = r.String()
		}
	}
	if r.Err() != nil {
		return Cmd{}, r.Err()
	}
	return c, nil
}

// encodeRelay wraps a process-level message for transport inside a scoped
// cast on the app's stream (coordination and C/R messages are opaque to the
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
