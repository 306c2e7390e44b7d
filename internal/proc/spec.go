package proc

import (
	"fmt"

	"starfish/internal/ckpt"
	"starfish/internal/wire"
)

// Policy is the fault-tolerance policy the client selects at submission
// (§3.2.2): what Starfish does when a node hosting one of the
// application's processes fails.
type Policy uint8

// Fault-tolerance policies.
const (
	// PolicyKill aborts the application on any partial failure,
	// mimicking non-fault-tolerant systems (the paper's compatibility
	// option).
	PolicyKill Policy = iota + 1
	// PolicyRestart automatically restarts the application from its last
	// recovery line, re-placing lost processes on surviving nodes.
	PolicyRestart
	// PolicyNotify delivers a view-change upcall to the surviving
	// processes, which repartition the computation and continue
	// (trivially-parallel applications).
	PolicyNotify
)

func (p Policy) String() string {
	switch p {
	case PolicyKill:
		return "kill"
	case PolicyRestart:
		return "restart"
	case PolicyNotify:
		return "notify"
	default:
		return fmt.Sprintf("proc.Policy(%d)", uint8(p))
	}
}

// AppSpec is everything the cluster needs to run an application. It is
// part of the replicated daemon state: every daemon holds the same specs
// and derives the same placement decisions from them.
type AppSpec struct {
	ID   wire.AppID
	Name string // registered application name
	Args []byte // application arguments (EncodeVMApp output for VM apps)
	// Ranks is the number of MPI processes.
	Ranks int
	// Protocol selects the distributed checkpointing protocol.
	Protocol ckpt.Protocol
	// Encoder selects native (homogeneous) or portable (heterogeneous)
	// checkpoint images.
	Encoder ckpt.Kind
	// CkptEverySteps makes rank 0 initiate a coordinated round (or every
	// rank an independent checkpoint) each time that many steps complete;
	// 0 disables automatic checkpoints.
	CkptEverySteps uint64
	// Policy is the fault-tolerance policy on node failure.
	Policy Policy
	// Owner is the submitting user (management protocol sessions may only
	// manipulate their own applications).
	Owner string
	// Store selects the checkpoint storage backend (disk, replicated
	// memory, or tiered). The zero value is disk, so specs encoded before
	// the field existed keep their behavior.
	Store ckpt.StoreKind
	// DeltaCkpt enables the incremental checkpoint pipeline: an epoch's
	// record carries only the blocks that changed since the previous one
	// instead of its whole image.
	DeltaCkpt bool
}

// Encode serializes the spec for replication between daemons.
func (s *AppSpec) Encode() []byte {
	w := wire.NewWriter(64 + len(s.Args))
	w.U32(uint32(s.ID)).String(s.Name).Bytes32(s.Args)
	w.U32(uint32(s.Ranks)).U8(uint8(s.Protocol)).U8(uint8(s.Encoder))
	w.U64(s.CkptEverySteps).U8(uint8(s.Policy)).String(s.Owner)
	w.U8(uint8(s.Store))
	w.Bool(s.DeltaCkpt)
	return w.Bytes()
}

// DecodeSpec parses a spec written by Encode.
func DecodeSpec(b []byte) (AppSpec, error) {
	r := wire.NewReader(b)
	s := AppSpec{ID: wire.AppID(r.U32()), Name: r.String()}
	s.Args = append([]byte(nil), r.Bytes32()...)
	s.Ranks = int(r.U32())
	s.Protocol = ckpt.Protocol(r.U8())
	s.Encoder = ckpt.Kind(r.U8())
	s.CkptEverySteps = r.U64()
	s.Policy = Policy(r.U8())
	s.Owner = r.String()
	if r.Remaining() > 0 {
		// Specs encoded before the Store field existed omit the byte; they
		// decode as disk.
		s.Store = ckpt.StoreKind(r.U8())
	}
	if r.Remaining() > 0 {
		// Likewise the incremental-pipeline flag: absent means disabled.
		s.DeltaCkpt = r.Bool()
	}
	if r.Err() != nil {
		return AppSpec{}, r.Err()
	}
	if s.Ranks <= 0 {
		return AppSpec{}, fmt.Errorf("proc: spec with %d ranks", s.Ranks)
	}
	return s, nil
}

// NewEncoder instantiates the spec's checkpoint encoder.
func (s *AppSpec) NewEncoder() ckpt.Encoder {
	if s.Encoder == ckpt.Portable {
		return &ckpt.PortableEncoder{}
	}
	return &ckpt.NativeEncoder{}
}

// Configuration-message kinds (wire.TConfiguration) exchanged between a
// daemon and its local application processes (§2.3).
const (
	// CfgStart carries StartInfo: the process may build its communicator
	// and begin (or resume) execution.
	CfgStart uint16 = 0x50
	// CfgAbort tells the process to terminate immediately.
	CfgAbort uint16 = 0x51
	// CfgCkptNow asks the process to initiate a checkpoint round at its
	// next safe point (system-initiated checkpointing).
	CfgCkptNow uint16 = 0x52
	// CfgDone is sent by the process when it finishes; payload is the
	// error text, empty on success.
	CfgDone uint16 = 0x53
	// CfgSuspend pauses stepping at the next boundary; CfgResume
	// continues.
	CfgSuspend uint16 = 0x54
	CfgResume  uint16 = 0x55
)

// LWViewKind is the lightweight-membership message kind (wire.TLWMembership)
// a daemon's lightweight endpoint module sends to its process on a
// lightweight view change.
const LWViewKind uint16 = 0x60

// StartInfo is the CfgStart payload.
type StartInfo struct {
	Gen  uint32
	Size int
	// Addrs maps every rank to its data-path address for this
	// incarnation.
	Addrs map[wire.Rank]string
	// Restore indicates this incarnation resumes from a checkpoint.
	Restore bool
	// RestoreIndex is the checkpoint index this rank restores (its entry
	// in the recovery line).
	RestoreIndex uint64
	// NextCkptIndex is the index the next checkpoint round will use.
	NextCkptIndex uint64
	// Line is the full recovery line (every rank's restore index); the
	// uncoordinated protocol uses peers' entries to decide which logged
	// messages to replay.
	Line map[wire.Rank]uint64
}

// Encode serializes the start info.
func (si *StartInfo) Encode() []byte {
	w := wire.NewWriter(64)
	w.U32(si.Gen).U32(uint32(si.Size)).Bool(si.Restore).U64(si.RestoreIndex).U64(si.NextCkptIndex)
	w.U32(uint32(len(si.Addrs)))
	for r := 0; r < si.Size; r++ {
		if addr, ok := si.Addrs[wire.Rank(r)]; ok {
			w.U32(uint32(r)).String(addr)
		}
	}
	w.U32(uint32(len(si.Line)))
	for r := 0; r < si.Size; r++ {
		if n, ok := si.Line[wire.Rank(r)]; ok {
			w.U32(uint32(r)).U64(n)
		}
	}
	return w.Bytes()
}

// DecodeStartInfo parses a StartInfo.
func DecodeStartInfo(b []byte) (StartInfo, error) {
	r := wire.NewReader(b)
	si := StartInfo{
		Gen:  r.U32(),
		Size: int(r.U32()),
	}
	si.Restore = r.Bool()
	si.RestoreIndex = r.U64()
	si.NextCkptIndex = r.U64()
	n := r.U32()
	si.Addrs = make(map[wire.Rank]string, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		rank := wire.Rank(r.U32())
		si.Addrs[rank] = r.String()
	}
	nl := r.U32()
	if nl > 0 {
		si.Line = make(map[wire.Rank]uint64, nl)
	}
	for i := uint32(0); i < nl && r.Err() == nil; i++ {
		rank := wire.Rank(r.U32())
		si.Line[rank] = r.U64()
	}
	if r.Err() != nil {
		return StartInfo{}, r.Err()
	}
	return si, nil
}

// LWViewInfo is the LWViewKind payload: the application-visible membership
// after a lightweight view change.
type LWViewInfo struct {
	Alive    []wire.Rank
	Departed []wire.Rank
}

// Encode serializes the view info.
func (v *LWViewInfo) Encode() []byte {
	w := wire.NewWriter(8 + 4*(len(v.Alive)+len(v.Departed)))
	w.U32(uint32(len(v.Alive)))
	for _, r := range v.Alive {
		w.U32(uint32(r))
	}
	w.U32(uint32(len(v.Departed)))
	for _, r := range v.Departed {
		w.U32(uint32(r))
	}
	return w.Bytes()
}

// DecodeLWViewInfo parses a view info payload.
func DecodeLWViewInfo(b []byte) (LWViewInfo, error) {
	r := wire.NewReader(b)
	var v LWViewInfo
	na := r.U32()
	for i := uint32(0); i < na && r.Err() == nil; i++ {
		v.Alive = append(v.Alive, wire.Rank(r.U32()))
	}
	nd := r.U32()
	for i := uint32(0); i < nd && r.Err() == nil; i++ {
		v.Departed = append(v.Departed, wire.Rank(r.U32()))
	}
	if r.Err() != nil {
		return LWViewInfo{}, r.Err()
	}
	return v, nil
}
