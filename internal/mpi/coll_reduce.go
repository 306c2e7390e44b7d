package mpi

import (
	"fmt"

	"starfish/internal/wire"
)

// Reduction algorithms. Unlike broadcast, every rank knows the buffer size
// (all contributions are equally shaped), so algorithm selection is a pure
// local decision (allreduceUseRab) — no header needed.
//
//   - Reduce: binomial tree; the first merge combines contrib and the child's
//     block into a pooled accumulator, later merges fold into it, and the
//     accumulator itself moves up the tree via SendOwned.
//   - ReduceScatter: recursive halving for power-of-two sizes (each round
//     halves the data in flight), pairwise exchange otherwise.
//   - Allreduce: Rabenseifner's algorithm for large aligned buffers —
//     reduce-scatter then allgather, moving ~2/n of the buffer per rank
//     per phase instead of log2(n) full copies — and tree reduce + bcast
//     below the crossover.
//
// Every combine writes its result where the next step reads it (combineTo):
// into the buffer the next round sends, the buffer it keeps, or the result.
// So a reduction copies only at the API boundary — a first send out of
// contrib — and a power-of-two Allreduce of S bytes copies 1.5·S per rank:
// S/2 + S/n at the boundary and (n-1)·S/n into the result in the allgather
// (TestReductionCopyBudget).

// Reduce combines every rank's contribution with fn and delivers the
// result to root (binomial-tree reduction). fn must be associative and
// commutative. Non-root ranks return nil. contrib is never modified: the
// first merge combines it with the child's block into a pooled accumulator,
// later merges fold into that, and interior ranks move the accumulator
// itself to their parent.
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
			own := acc
			if acc == nil {
				own, acc = contrib, wire.GetBuf(len(contrib))
			}
			err = combineTo(acc, own, data, fn)
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
		// Round 1 sends straight out of contrib. Every round then combines
		// this rank's partial with the partner's half into fresh pooled
		// buffers, split the way the next round splits them: next, which
		// that round moves with SendOwned, and kept, which it combines
		// again. The last round combines into dst.
		var next, kept []byte // pooled; nil until round 1 has combined
		fail := func(err error) error {
			if next != nil {
				wire.PutBuf(next)
			}
			if kept != nil {
				wire.PutBuf(kept)
			}
			return err
		}
		keepLo, keepHi, sendLo, sendHi := halve(0, n, me, n/2) // chunk ranges
		for d := n / 2; d >= 1; d /= 2 {
			partner := wire.Rank(me ^ d)
			own := kept // this rank's partial over [keepLo,keepHi)
			var err error
			if d == n/2 {
				own = contrib[offs[keepLo]:offs[keepHi]]
				seg := contrib[offs[sendLo]:offs[sendHi]]
				wire.CountCollSeg(len(seg))
				err = c.Send(partner, tag, seg)
			} else {
				wire.CountCollSeg(len(next))
				err = c.SendOwned(partner, tag, next)
				next = nil
			}
			if err != nil {
				return fail(err)
			}
			// Blocking Recv suffices: the transport queues the partner's
			// half regardless of whether a receive is posted.
			got, st, err := c.Recv(partner, tag)
			if err != nil {
				return fail(err)
			}
			if len(got) != len(own) {
				err = fmt.Errorf("%w: halving block %d bytes, want %d", ErrBadLength, len(got), len(own))
			} else if d == 1 {
				err = combineTo(dst, own, got, fn)
			} else {
				base := offs[keepLo]
				keepLo, keepHi, sendLo, sendHi = halve(keepLo, keepHi, me, d/2)
				sLo, sHi, kLo, kHi := offs[sendLo]-base, offs[sendHi]-base, offs[keepLo]-base, offs[keepHi]-base
				next = wire.GetBuf(sHi - sLo)
				fresh := wire.GetBuf(kHi - kLo)
				err = combineTo(next, own[sLo:sHi], got[sLo:sHi], fn)
				if err == nil {
					err = combineTo(fresh, own[kLo:kHi], got[kLo:kHi], fn)
				}
				if kept != nil {
					wire.PutBuf(kept) // own, now combined
				}
				kept = fresh
			}
			if st.Pooled {
				wire.PutBuf(got)
			}
			if err != nil {
				return fail(err)
			}
		}
		if kept != nil {
			wire.PutBuf(kept) // the last round's partial
		}
		return nil
	}
	// Pairwise exchange: every rank sends rank (me+s) its chunk straight
	// out of contrib; the first arrival combines with this rank's own chunk
	// into dst, later ones fold into dst.
	own := contrib[offs[me]:offs[me+1]]
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
			err = fmt.Errorf("%w: pairwise chunk %d bytes, want %d", ErrBadLength, len(got), counts[me])
		} else {
			err = combineTo(dst, own, got, fn)
		}
		if st.Pooled {
			wire.PutBuf(got)
		}
		if err != nil {
			return err
		}
		own = dst
	}
	return nil
}

// halve splits the chunk range [lo,hi) for the halving round of distance
// d: the half this rank keeps and the half it sends to its partner me^d.
func halve(lo, hi, me, d int) (keepLo, keepHi, sendLo, sendHi int) {
	mid := (lo + hi) / 2
	if me&d != 0 {
		return mid, hi, lo, mid
	}
	return lo, mid, mid, hi
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
	err := c.reduceScatterTo(contrib, counts, offs, fn, result[offs[me]:offs[me+1]], tagAllreduceRS)
	if err == nil {
		err = c.collAllgatherChunks(0, me, result, offs, false, tagAllreduceAG)
	}
	if err != nil {
		wire.PutBuf(result)
		return nil, fmt.Errorf("allreduce: %w", err)
	}
	return result, nil
}
