package mpi

import (
	"fmt"

	"starfish/internal/wire"
)

// Collective operations. All are built on the point-to-point layer with
// reserved tags, so they inherit the fast path. Every rank of the
// communicator must call the collective; tags separate concurrent
// collectives of different kinds but, as in MPI, collectives of the same
// kind must be issued in the same order everywhere.
//
// Bcast and Allreduce pick their algorithm from the message size and rank
// count (see coll_select.go): latency-optimal trees for small messages,
// segmented/pipelined or bandwidth-optimal algorithms for large ones. The
// individual algorithms live in coll_bcast.go (broadcast), coll_reduce.go
// (reductions), and coll_fanout.go (rooted scatter/gather trees).
//
// Internal tags live above 1<<30 so they can never collide with user tags.
const (
	tagBarrier int32 = 1<<30 + iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagScan
	tagGatherv
	tagSendrecv
	tagBcastSeg
	tagBcastAG
	tagReduceScatter
	tagAllreduceRS
	tagAllreduceAG
)

// ReduceFunc combines two equally-shaped buffers into one.
type ReduceFunc func(a, b []byte) ([]byte, error)

// Binomial-tree geometry, shared by bcast, reduce, scatter, and gather.
// Trees are laid out in virtual-rank space with the root rotated to vrank
// 0; vrank v's parent is v with its lowest set bit cleared, its children
// are v|m for each power of two m below that bit, and the subtree rooted
// at v spans the contiguous vrank range [v, v+lowbit(v)) — which is what
// lets scatter and gather ship a child's whole subtree as one block.

// collVrank maps this rank into the tree's virtual-rank space.
func (c *Comm) collVrank(root wire.Rank) int {
	return (int(c.cfg.Rank) - int(root) + c.cfg.Size) % c.cfg.Size
}

// collReal maps a virtual rank back to a real one.
func collReal(v int, root wire.Rank, n int) wire.Rank {
	return wire.Rank((v + int(root)) % n)
}

// binomialParent returns v's parent vrank (v must be non-zero).
func binomialParent(v int) int { return v &^ (v & -v) }

// binomialChildren returns v's child vranks in ascending-subtree order.
func binomialChildren(v, n int) []int {
	limit := v & -v
	if v == 0 {
		limit = n
	}
	var out []int
	for m := 1; m < limit; m <<= 1 {
		child := v | m
		if child >= n {
			break
		}
		out = append(out, child)
	}
	return out
}

// subtreeEnd returns one past the last vrank of v's subtree.
func subtreeEnd(v, n int) int {
	if v == 0 {
		return n
	}
	return min(v+(v&-v), n)
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ceil(log2 n) rounds).
func (c *Comm) Barrier() error {
	n := c.cfg.Size
	if n == 1 {
		return nil
	}
	me := int(c.cfg.Rank)
	for dist := 1; dist < n; dist *= 2 {
		dst := wire.Rank((me + dist) % n)
		src := wire.Rank((me - dist + n) % n)
		req := c.Irecv(src, tagBarrier)
		if err := c.Send(dst, tagBarrier, nil); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		if _, _, err := req.Wait(); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
	}
	return nil
}

// Allgather collects every rank's contribution at every rank (ring
// algorithm: n-1 steps, each forwarding the piece received last step).
func (c *Comm) Allgather(contrib []byte) ([][]byte, error) {
	n := c.cfg.Size
	out := make([][]byte, n)
	out[c.cfg.Rank] = contrib
	if n == 1 {
		return out, nil
	}
	me := int(c.cfg.Rank)
	right := wire.Rank((me + 1) % n)
	left := wire.Rank((me - 1 + n) % n)
	carry := contrib
	carryOwner := me
	for step := 0; step < n-1; step++ {
		req := c.Irecv(left, tagAllgather)
		if err := c.Send(right, tagAllgather, carry); err != nil {
			return nil, fmt.Errorf("allgather: %w", err)
		}
		data, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("allgather: %w", err)
		}
		carryOwner = (carryOwner - 1 + n) % n
		carry = data
		out[carryOwner] = data
	}
	return out, nil
}

// Alltoall performs a personalized all-to-all exchange: parts[r] goes to
// rank r; the result's element r came from rank r.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	n := c.cfg.Size
	if len(parts) != n {
		return nil, fmt.Errorf("alltoall: %w: %d parts for %d ranks", ErrBadLength, len(parts), n)
	}
	out := make([][]byte, n)
	out[c.cfg.Rank] = parts[c.cfg.Rank]
	me := int(c.cfg.Rank)
	// Pairwise exchange on the rotation schedule, with every receive
	// posted up front so arrivals drain in any order.
	reqs := make([]*Request, 0, n-1)
	for step := 1; step < n; step++ {
		dst := wire.Rank((me + step) % n)
		src := wire.Rank((me - step + n) % n)
		req := c.Irecv(src, tagAlltoall)
		reqs = append(reqs, req)
		if err := c.Send(dst, tagAlltoall, parts[dst]); err != nil {
			return nil, fmt.Errorf("alltoall: %w", err)
		}
	}
	for step := 1; step < n; step++ {
		src := wire.Rank((me - step + n) % n)
		data, _, err := reqs[step-1].Wait()
		if err != nil {
			return nil, fmt.Errorf("alltoall: %w", err)
		}
		out[src] = data
	}
	return out, nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// fn(contrib_0, ..., contrib_r) (linear chain).
func (c *Comm) Scan(contrib []byte, fn ReduceFunc) ([]byte, error) {
	me := int(c.cfg.Rank)
	acc := contrib
	if me > 0 {
		prev, _, err := c.Recv(wire.Rank(me-1), tagScan)
		if err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
		if acc, err = fn(prev, contrib); err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
	}
	if me < c.cfg.Size-1 {
		if err := c.Send(wire.Rank(me+1), tagScan, acc); err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
	}
	return acc, nil
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv): buf goes
// to dst while one message is received from src — deadlock-free even when
// every rank calls it simultaneously in a ring, because the send is eager.
func (c *Comm) Sendrecv(dst wire.Rank, sendTag int32, buf []byte, src wire.Rank, recvTag int32) ([]byte, Status, error) {
	req := c.Irecv(src, recvTag)
	if err := c.Send(dst, sendTag, buf); err != nil {
		return nil, Status{}, fmt.Errorf("sendrecv: %w", err)
	}
	data, st, err := req.Wait()
	if err != nil {
		return nil, st, fmt.Errorf("sendrecv: %w", err)
	}
	return data, st, nil
}

// Gatherv collects variable-length contributions at root (MPI_Gatherv).
// Buffers carry their own lengths in this library, so the signature matches
// Gather; it uses a distinct internal tag so concurrent Gather and Gatherv
// collectives cannot cross-match. The root posts one receive per sender up
// front, so concurrently arriving contributions drain without head-of-line
// blocking. Non-root ranks return nil.
func (c *Comm) Gatherv(root wire.Rank, contrib []byte) ([][]byte, error) {
	if c.cfg.Rank != root {
		if err := c.Send(root, tagGatherv, contrib); err != nil {
			return nil, fmt.Errorf("gatherv: %w", err)
		}
		return nil, nil
	}
	n := c.cfg.Size
	out := make([][]byte, n)
	out[root] = contrib
	reqs := make([]*Request, 0, n-1)
	srcs := make([]wire.Rank, 0, n-1)
	for r := 0; r < n; r++ {
		if wire.Rank(r) == root {
			continue
		}
		reqs = append(reqs, c.Irecv(wire.Rank(r), tagGatherv))
		srcs = append(srcs, wire.Rank(r))
	}
	for i, req := range reqs {
		data, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("gatherv: %w", err)
		}
		out[srcs[i]] = data
	}
	return out, nil
}
