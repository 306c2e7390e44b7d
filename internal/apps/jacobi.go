package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"starfish/internal/mpi"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// Jacobi solves the 1-D heat equation u_i <- (u_{i-1} + u_{i+1}) / 2 on a
// grid of N interior points with fixed boundaries, distributed by
// contiguous blocks over the ranks. Each step performs one halo exchange
// (the classic nearest-neighbour MPI pattern) and one relaxation sweep.
// After the final iteration the segments are gathered at rank 0, which
// recomputes the whole run sequentially and fails if the distributed
// result deviates — making every cluster run self-verifying, including
// runs that crashed and restarted from a checkpoint.
//
// A steady-state step allocates nothing: the sweep writes the other of two
// alternating grids, a halo value travels through eight bytes of the struct,
// and RecvInto hands the transport buffer back to the pool.
type Jacobi struct {
	N     int   // interior grid points
	Iters int64 // relaxation sweeps
	Left  float64
	Right float64

	iter int64
	u    []float64 // local block, including two halo cells
	next []float64 // the sweep's target: swapped with u every step, not state
	halo [8]byte   // one halo value on its way out or in (mpi.Float64Bytes' encoding)
	lo   int       // global index of first owned point
	size int       // owned points
}

const (
	jacobiTagHalo   int32 = 200
	jacobiTagGather int32 = 201
)

// JacobiArgs encodes submission arguments.
func JacobiArgs(n int, iters int64, left, right float64) []byte {
	w := wire.NewWriter(32)
	w.U32(uint32(n)).I64(iters).F64(left).F64(right)
	return w.Bytes()
}

// DecodeJacobi parses JacobiArgs.
func DecodeJacobi(args []byte) (*Jacobi, error) {
	r := wire.NewReader(args)
	a := &Jacobi{N: int(r.U32()), Iters: r.I64(), Left: r.F64(), Right: r.F64()}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if a.N <= 0 || a.Iters < 0 {
		return nil, fmt.Errorf("jacobi: bad args n=%d iters=%d", a.N, a.Iters)
	}
	return a, nil
}

// blockBounds returns the contiguous block [lo, lo+size) owned by rank.
func blockBounds(n, ranks int, rank wire.Rank) (lo, size int) {
	base := n / ranks
	rem := n % ranks
	r := int(rank)
	lo = r*base + min(r, rem)
	size = base
	if r < rem {
		size++
	}
	return lo, size
}

// Init implements proc.App.
func (a *Jacobi) Init(ctx *proc.Ctx) error {
	a.lo, a.size = blockBounds(a.N, ctx.Size, ctx.Rank)
	a.u = make([]float64, a.size+2)
	a.next = make([]float64, a.size+2)
	// Initial interior value 0; boundary conditions via halos of the edge
	// ranks.
	a.u[0] = a.Left
	a.u[a.size+1] = a.Right
	return nil
}

// Restore implements proc.App.
func (a *Jacobi) Restore(_ *proc.Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.N = int(r.U32())
	a.Iters = r.I64()
	a.Left, a.Right = r.F64(), r.F64()
	a.iter = r.I64()
	a.lo = int(r.U32())
	a.size = int(r.U32())
	vals := r.Bytes32()
	if r.Err() != nil {
		return r.Err()
	}
	u, err := mpi.BytesFloat64(vals)
	if err != nil {
		return err
	}
	if len(u) != a.size+2 {
		return fmt.Errorf("jacobi: snapshot holds %d cells for %d owned points", len(u), a.size)
	}
	a.u, a.next = u, make([]float64, len(u))
	return nil
}

// Snapshot implements proc.App.
func (a *Jacobi) Snapshot() ([]byte, error) {
	w := wire.NewWriter(64 + 8*len(a.u))
	w.U32(uint32(a.N)).I64(a.Iters).F64(a.Left).F64(a.Right)
	w.I64(a.iter).U32(uint32(a.lo)).U32(uint32(a.size))
	w.Bytes32(mpi.Float64Bytes(a.u))
	return w.Bytes(), nil
}

// Step implements proc.App: one halo exchange + one sweep; on completion,
// gather and verify at rank 0.
func (a *Jacobi) Step(ctx *proc.Ctx) (bool, error) {
	if a.iter >= a.Iters {
		return true, a.verify(ctx)
	}
	if err := a.exchangeHalos(ctx); err != nil {
		return false, err
	}
	// l, r and out are the cells left of, right of and at each owned point;
	// cut to one length, the loop indexes them without bounds checks.
	size := a.size
	u, next := a.u[:size+2], a.next[:size+2]
	out := next[1 : size+1]
	l, r := u[:len(out)], u[2:][:len(out)]
	for i := range out {
		out[i] = (l[i] + r[i]) / 2
	}
	next[0], next[size+1] = u[0], u[size+1]
	a.u, a.next = next, u
	a.iter++
	return false, nil
}

func (a *Jacobi) exchangeHalos(ctx *proc.Ctx) error {
	left, right := ctx.Rank-1, ctx.Rank+1
	hasLeft, hasRight := ctx.Rank > 0, int(ctx.Rank) < ctx.Size-1
	if hasLeft {
		if err := a.sendHalo(ctx, left, a.u[1]); err != nil {
			return err
		}
	}
	if hasRight {
		if err := a.sendHalo(ctx, right, a.u[a.size]); err != nil {
			return err
		}
	}
	if hasLeft {
		if err := a.recvHalo(ctx, left, &a.u[0]); err != nil {
			return err
		}
	}
	if hasRight {
		if err := a.recvHalo(ctx, right, &a.u[a.size+1]); err != nil {
			return err
		}
	}
	return nil
}

func (a *Jacobi) sendHalo(ctx *proc.Ctx, to wire.Rank, v float64) error {
	binary.LittleEndian.PutUint64(a.halo[:], math.Float64bits(v))
	return ctx.Comm.Send(to, jacobiTagHalo, a.halo[:])
}

func (a *Jacobi) recvHalo(ctx *proc.Ctx, from wire.Rank, v *float64) error {
	n, _, err := ctx.Comm.RecvInto(from, jacobiTagHalo, a.halo[:])
	if err != nil {
		return err
	}
	if n != len(a.halo) {
		return fmt.Errorf("jacobi: rank %d sent a %d-byte halo", from, n)
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(a.halo[:]))
	return nil
}

// verify gathers the distributed solution at rank 0 and compares it with a
// sequential recomputation.
func (a *Jacobi) verify(ctx *proc.Ctx) error {
	if ctx.Size == 1 {
		return a.verifyAgainst(a.u[1 : a.size+1])
	}
	if ctx.Rank != 0 {
		return ctx.Comm.Send(0, jacobiTagGather, mpi.Float64Bytes(a.u[1:a.size+1]))
	}
	full := make([]float64, a.N)
	copy(full, a.u[1:a.size+1])
	buf := make([]byte, 8*a.size) // rank 0 owns a largest block
	for r := 1; r < ctx.Size; r++ {
		n, _, err := ctx.Comm.RecvInto(wire.Rank(r), jacobiTagGather, buf)
		if err != nil {
			return err
		}
		seg, err := mpi.BytesFloat64(buf[:n])
		if err != nil {
			return err
		}
		lo, size := blockBounds(a.N, ctx.Size, wire.Rank(r))
		if len(seg) != size {
			return fmt.Errorf("jacobi: rank %d sent %d points, want %d", r, len(seg), size)
		}
		copy(full[lo:lo+size], seg)
	}
	return a.verifyAgainst(full)
}

func (a *Jacobi) verifyAgainst(got []float64) error {
	ref := SequentialJacobi(a.N, a.Iters, a.Left, a.Right)
	for i := range ref {
		if math.Abs(ref[i]-got[i]) > 1e-9 {
			return fmt.Errorf("jacobi: mismatch at %d: distributed %.12f, sequential %.12f",
				i, got[i], ref[i])
		}
	}
	return nil
}

// SequentialJacobi is the single-machine reference implementation.
func SequentialJacobi(n int, iters int64, left, right float64) []float64 {
	u := make([]float64, n+2)
	u[0], u[n+1] = left, right
	next := make([]float64, n+2)
	copy(next, u)
	for it := int64(0); it < iters; it++ {
		for i := 1; i <= n; i++ {
			next[i] = (u[i-1] + u[i+1]) / 2
		}
		u, next = next, u
		copy(next, u)
	}
	return u[1 : n+1]
}
