package mpi

import (
	"fmt"

	"starfish/internal/wire"
)

// Reduction algorithms. Unlike broadcast, every rank knows the buffer size
// (all contributions are equally shaped), so algorithm selection is a pure
// local decision (allreduceUseRab) — no header needed.
//
//   - Reduce: binomial tree combining into a pooled accumulator (in-place
//     for the builtin operators), the accumulator itself moving up the tree
//     via SendOwned.
//   - ReduceScatter: recursive halving for power-of-two sizes (each round
//     halves the data in flight), pairwise exchange otherwise.
//   - Allreduce: Rabenseifner's algorithm for large aligned buffers —
//     reduce-scatter then allgather, moving ~2/n of the buffer per rank
//     per phase instead of log2(n) full copies — and tree reduce + bcast
//     below the crossover.

// Reduce combines every rank's contribution with fn and delivers the
// result to root (binomial-tree reduction). fn must be associative and
// commutative. Non-root ranks return nil. contrib is never modified: the
// first merge copies it into a pooled accumulator, later merges combine in
// place, and interior ranks move the accumulator itself to their parent.
func (c *Comm) Reduce(root wire.Rank, contrib []byte, fn ReduceFunc) ([]byte, error) {
	n := c.cfg.Size
	if n == 1 {
		return contrib, nil
	}
	vrank := c.collVrank(root)
	var acc []byte // pooled; nil until the first merge
	fail := func(err error) ([]byte, error) {
		if acc != nil {
			wire.PutBuf(acc)
		}
		return nil, fmt.Errorf("reduce: %w", err)
	}
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := collReal(vrank&^mask, root, n)
			var err error
			if acc != nil {
				err = c.SendOwned(parent, tagReduce, acc)
			} else {
				// Leaf: contrib goes up unmodified (one boundary copy).
				err = c.Send(parent, tagReduce, contrib)
			}
			if err != nil {
				return nil, fmt.Errorf("reduce: %w", err)
			}
			return nil, nil
		}
		child := vrank | mask
		if child < n {
			data, st, err := c.Recv(collReal(child, root, n), tagReduce)
			if err != nil {
				return fail(err)
			}
			if acc == nil {
				acc = wire.GetBuf(len(contrib))
				copy(acc, contrib)
				wire.CountCopy(wire.CopyColl, len(contrib))
			}
			err = combineInto(acc, data, fn)
			if st.Pooled {
				wire.PutBuf(data)
			}
			if err != nil {
				return fail(err)
			}
		}
		mask <<= 1
	}
	if acc == nil {
		return contrib, nil
	}
	return acc, nil
}

// ReduceScatter combines every rank's contribution elementwise and leaves
// rank r with the counts[r]-byte slice of the result starting at
// offset counts[0]+...+counts[r-1] (MPI_Reduce_scatter). counts must sum
// to len(contrib) and be identical on every rank; a nil counts splits the
// buffer evenly on 8-byte element boundaries. contrib is never modified.
func (c *Comm) ReduceScatter(contrib []byte, counts []int, fn ReduceFunc) ([]byte, error) {
	n := c.cfg.Size
	if counts == nil {
		if len(contrib)%collElemAlign != 0 {
			return nil, fmt.Errorf("reduce-scatter: %w: %d bytes not a multiple of the %d-byte element", ErrBadLength, len(contrib), collElemAlign)
		}
		counts, _ = evenByteCounts(len(contrib), n, collElemAlign)
	}
	if len(counts) != n {
		return nil, fmt.Errorf("reduce-scatter: %w: %d counts for %d ranks", ErrBadLength, len(counts), n)
	}
	sum := 0
	for _, cnt := range counts {
		if cnt < 0 {
			return nil, fmt.Errorf("reduce-scatter: %w: negative count %d", ErrBadLength, cnt)
		}
		sum += cnt
	}
	if sum != len(contrib) {
		return nil, fmt.Errorf("reduce-scatter: %w: counts sum to %d, contribution is %d bytes", ErrBadLength, sum, len(contrib))
	}
	if n == 1 {
		return contrib, nil
	}
	offs := make([]int, n+1)
	for i, cnt := range counts {
		offs[i+1] = offs[i] + cnt
	}
	me := int(c.cfg.Rank)
	out := make([]byte, counts[me])
	if err := c.reduceScatterTo(contrib, counts, offs, fn, out, tagReduceScatter); err != nil {
		return nil, fmt.Errorf("reduce-scatter: %w", err)
	}
	return out, nil
}

// reduceScatterTo writes this rank's combined chunk into dst. Power-of-two
// communicators use recursive halving — the live range halves every round,
// so total traffic is ~len(contrib) per rank; other sizes use pairwise
// exchange (n-1 light rounds of one chunk each).
func (c *Comm) reduceScatterTo(contrib []byte, counts, offs []int, fn ReduceFunc, dst []byte, tag int32) error {
	n := c.cfg.Size
	me := int(c.cfg.Rank)
	if n&(n-1) == 0 {
		// The first round sends straight out of contrib, so the pooled
		// accumulator is allocated at half size only once the live range has
		// already halved — the classic full-buffer staging copy never happens.
		var acc []byte // holds chunks [lo,hi) at acc[offs[i]-base:]
		base := 0
		fail := func(err error) error {
			if acc != nil {
				wire.PutBuf(acc)
			}
			return err
		}
		lo, hi := 0, n // chunk range this rank still owns
		for d := n / 2; d >= 1; d /= 2 {
			partner := me ^ d
			mid := (lo + hi) / 2
			keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
			if me&d != 0 {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			src, sb := acc, base
			if acc == nil {
				src, sb = contrib, 0
			}
			seg := src[offs[sendLo]-sb : offs[sendHi]-sb]
			if err := c.Send(wire.Rank(partner), tag, seg); err != nil {
				return fail(err)
			}
			wire.CountCollSeg(len(seg))
			// Blocking Recv suffices: the transport queues the partner's
			// half regardless of whether a receive is posted.
			got, st, err := c.Recv(wire.Rank(partner), tag)
			if err != nil {
				return fail(err)
			}
			if len(got) != offs[keepHi]-offs[keepLo] {
				return fail(fmt.Errorf("%w: halving block %d bytes, want %d", ErrBadLength, len(got), offs[keepHi]-offs[keepLo]))
			}
			if acc == nil {
				acc = wire.GetBuf(offs[keepHi] - offs[keepLo])
				base = offs[keepLo]
				copy(acc, contrib[offs[keepLo]:offs[keepHi]])
				wire.CountCopy(wire.CopyColl, len(acc))
			}
			err = combineInto(acc[offs[keepLo]-base:offs[keepHi]-base], got, fn)
			if st.Pooled {
				wire.PutBuf(got)
			}
			if err != nil {
				return fail(err)
			}
			lo, hi = keepLo, keepHi
		}
		copy(dst, acc[offs[lo]-base:offs[hi]-base]) // lo == me, hi == me+1
		wire.CountCopy(wire.CopyColl, len(dst))
		wire.PutBuf(acc)
		return nil
	}
	// Pairwise exchange: every rank sends rank (me+s) its chunk straight
	// out of contrib and folds what arrives into dst.
	copy(dst, contrib[offs[me]:offs[me+1]])
	wire.CountCopy(wire.CopyColl, len(dst))
	for s := 1; s < n; s++ {
		to := (me + s) % n
		from := (me - s + n) % n
		seg := contrib[offs[to]:offs[to+1]]
		if err := c.Send(wire.Rank(to), tag, seg); err != nil {
			return err
		}
		wire.CountCollSeg(len(seg))
		got, st, err := c.Recv(wire.Rank(from), tag)
		if err != nil {
			return err
		}
		if len(got) != counts[me] {
			return fmt.Errorf("%w: pairwise chunk %d bytes, want %d", ErrBadLength, len(got), counts[me])
		}
		err = combineInto(dst, got, fn)
		if st.Pooled {
			wire.PutBuf(got)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Allreduce combines every rank's contribution and returns the result at
// every rank. Large element-aligned buffers take Rabenseifner's
// reduce-scatter + allgather; everything else reduces to rank 0 and
// broadcasts. contrib is never modified.
func (c *Comm) Allreduce(contrib []byte, fn ReduceFunc) ([]byte, error) {
	n := c.cfg.Size
	if n == 1 {
		return contrib, nil
	}
	if allreduceUseRab(len(contrib), n) {
		return c.allreduceRab(contrib, fn)
	}
	acc, err := c.Reduce(0, contrib, fn)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, acc)
}

func (c *Comm) allreduceRab(contrib []byte, fn ReduceFunc) ([]byte, error) {
	me := int(c.cfg.Rank)
	counts, offs := c.evenGeom(len(contrib), collElemAlign)
	// Pooled result (every byte is overwritten below): the caller owns it
	// and may PutBuf it back, or simply drop it.
	result := wire.GetBuf(len(contrib))
	if err := c.reduceScatterTo(contrib, counts, offs, fn, result[offs[me]:offs[me+1]], tagAllreduceRS); err != nil {
		return nil, fmt.Errorf("allreduce: %w", err)
	}
	if err := c.collAllgatherChunks(0, me, result, offs, false, tagAllreduceAG); err != nil {
		return nil, fmt.Errorf("allreduce: %w", err)
	}
	return result, nil
}
