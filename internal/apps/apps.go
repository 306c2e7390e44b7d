// Package apps provides ready-made Starfish applications used by the
// examples, the cluster integration tests, and the benchmark harness:
//
//   - Ring: a self-verifying BSP token ring (the canonical lock-step MPI
//     communication pattern).
//   - Jacobi: a 1-D Jacobi relaxation with halo exchange, gathering and
//     verifying the result against a sequential reference at rank 0.
//   - Partition: a trivially parallel workload that repartitions itself on
//     view-change upcalls, demonstrating the paper's second
//     fault-tolerance mechanism (§3.2.2).
//   - Sizer: an application with a tunable in-memory state, used by the
//     checkpoint-size experiments (figures 3 and 4).
package apps

import (
	"fmt"
	"time"

	"starfish/internal/proc"
	"starfish/internal/wire"
)

// Registered application names.
const (
	RingName      = "ring"
	JacobiName    = "jacobi"
	PartitionName = "partition"
	SizerName     = "sizer"
)

func init() {
	proc.Register(RingName, func(args []byte) (proc.App, error) { return DecodeRing(args) })
	proc.Register(JacobiName, func(args []byte) (proc.App, error) { return DecodeJacobi(args) })
	proc.Register(PartitionName, func(args []byte) (proc.App, error) { return DecodePartition(args) })
	proc.Register(SizerName, func(args []byte) (proc.App, error) { return DecodeSizer(args) })
}

// ---- Ring ----

// Ring passes a value around the ring once per step: each rank sends its
// value right, receives from the left, and stores received+1. After R
// rounds rank i must hold ((i-R) mod n) + R; Step fails if not.
type Ring struct {
	Rounds int64
	// Pace, when non-zero, sleeps this long after every completed round.
	// Integration tests that must catch the ring mid-run (suspend,
	// migrate) set it so the control-command window is seconds wide
	// instead of racing an unthrottled ring to completion.
	Pace time.Duration
	// Ballast, when non-zero, is the size of a block of per-rank state the
	// ring carries in its snapshots, so checkpoints and restores move real
	// bytes and ranks finish restoring at different times.
	Ballast int

	round   int64
	val     int64
	ballast []byte
	init    bool
}

// RingArgs encodes the submission arguments for a Ring of the given length.
func RingArgs(rounds int64) []byte {
	w := wire.NewWriter(8)
	w.I64(rounds)
	return w.Bytes()
}

// RingArgsPaced is RingArgs plus a per-round sleep.
func RingArgsPaced(rounds int64, pace time.Duration) []byte {
	w := wire.NewWriter(16)
	w.I64(rounds).I64(int64(pace))
	return w.Bytes()
}

// RingArgsBallast is RingArgs plus a per-rank state ballast of the given
// size in bytes.
func RingArgsBallast(rounds int64, ballast int) []byte {
	w := wire.NewWriter(20)
	w.I64(rounds).I64(0).U32(uint32(ballast))
	return w.Bytes()
}

// DecodeRing parses RingArgs. The pace and ballast fields are optional so
// plain RingArgs submissions keep decoding.
func DecodeRing(args []byte) (*Ring, error) {
	r := wire.NewReader(args)
	a := &Ring{Rounds: r.I64()}
	if r.Err() == nil && r.Remaining() > 0 {
		a.Pace = time.Duration(r.I64())
	}
	if r.Err() == nil && r.Remaining() > 0 {
		a.Ballast = int(r.U32())
	}
	return a, r.Err()
}

const ringTag int32 = 100

// Init implements proc.App.
func (a *Ring) Init(ctx *proc.Ctx) error {
	a.val = int64(ctx.Rank)
	a.ballast = make([]byte, a.Ballast)
	a.init = true
	return nil
}

// Restore implements proc.App. The pace and ballast fields are optional so
// snapshots taken before they existed keep decoding.
func (a *Ring) Restore(_ *proc.Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.Rounds, a.round, a.val = r.I64(), r.I64(), r.I64()
	if r.Err() == nil && r.Remaining() > 0 {
		a.Pace = time.Duration(r.I64())
	}
	if r.Err() == nil && r.Remaining() > 0 {
		a.ballast = append([]byte(nil), r.Bytes32()...)
	}
	a.init = true
	return r.Err()
}

// Snapshot implements proc.App.
func (a *Ring) Snapshot() ([]byte, error) {
	w := wire.NewWriter(40 + len(a.ballast))
	w.I64(a.Rounds).I64(a.round).I64(a.val).I64(int64(a.Pace)).Bytes32(a.ballast)
	return w.Bytes(), nil
}

// Step implements proc.App.
func (a *Ring) Step(ctx *proc.Ctx) (bool, error) {
	n := int64(ctx.Size)
	if a.round >= a.Rounds {
		want := ((int64(ctx.Rank)-a.Rounds)%n+n)%n + a.Rounds
		if a.val != want {
			return true, fmt.Errorf("ring rank %d: val %d, want %d", ctx.Rank, a.val, want)
		}
		return true, nil
	}
	right := wire.Rank((int64(ctx.Rank) + 1) % n)
	left := wire.Rank((int64(ctx.Rank) - 1 + n) % n)
	w := wire.NewWriter(8)
	w.I64(a.val)
	if err := ctx.Comm.Send(right, ringTag, w.Bytes()); err != nil {
		return false, err
	}
	var token [8]byte
	got, _, err := ctx.Comm.RecvInto(left, ringTag, token[:])
	if err != nil {
		return false, err
	}
	r := wire.NewReader(token[:got])
	a.val = r.I64() + 1
	if r.Err() != nil {
		return false, r.Err()
	}
	a.round++
	if a.Pace > 0 {
		time.Sleep(a.Pace)
	}
	return false, nil
}

// Value exposes the current ring value (examples/inspection).
func (a *Ring) Value() int64 { return a.val }
