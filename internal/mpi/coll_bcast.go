package mpi

import (
	"encoding/binary"
	"fmt"

	"starfish/internal/wire"
)

// Broadcast algorithms. Only the root knows the message size, so algorithm
// selection is root-driven: the first message every rank receives — always
// from its deterministic binomial-tree parent — carries a small header
// naming the algorithm, the total size, and (for the pipelined tree) the
// segment size. Receivers then follow the same schedule the root chose.
//
//   - naive: the whole message down the binomial tree; latency-optimal for
//     small buffers.
//   - seg: the binomial tree pipelined in bcastSegSize segments, so a rank
//     forwards segment k while segment k+1 is still in flight.
//   - vdG (van de Geijn): binomial scatter of 1/n-size chunks followed by
//     an allgather; bandwidth-optimal (each rank moves ~2x the buffer
//     instead of log2(n) times).
//
// The header costs collHdrLen bytes per hop, so the largest broadcastable
// message is wire.MaxPayload - collHdrLen.

const collHdrLen = 13 // [1B algo][8B total][4B aux]

const (
	collAlgNaive byte = 1
	collAlgSeg   byte = 2
	collAlgVdG   byte = 3
)

func putCollHdr(dst []byte, algo byte, total int, aux uint32) {
	dst[0] = algo
	binary.LittleEndian.PutUint64(dst[1:], uint64(total))
	binary.LittleEndian.PutUint32(dst[9:], aux)
}

func parseCollHdr(b []byte) (algo byte, total int, aux uint32, err error) {
	if len(b) < collHdrLen {
		return 0, 0, 0, fmt.Errorf("%w: %d-byte collective header", ErrBadLength, len(b))
	}
	total64 := binary.LittleEndian.Uint64(b[1:])
	if total64 > uint64(wire.MaxPayload) {
		return 0, 0, 0, fmt.Errorf("%w: header claims %d bytes", ErrBadLength, total64)
	}
	return b[0], int(total64), binary.LittleEndian.Uint32(b[9:]), nil
}

// Bcast broadcasts buf from root to all ranks and returns the received
// buffer (root returns buf unchanged). The algorithm is chosen at the root
// from the message size and rank count (bcastAlgo).
func (c *Comm) Bcast(root wire.Rank, buf []byte) ([]byte, error) {
	n := c.cfg.Size
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("bcast: %w: root %d", ErrBadRank, root)
	}
	if n == 1 {
		return buf, nil
	}
	if c.collVrank(root) != 0 {
		return c.bcastRecv(root)
	}
	algo, seg := bcastAlgo(len(buf), n)
	if err := c.bcastRoot(root, buf, algo, seg); err != nil {
		return nil, err
	}
	return buf, nil
}

// bcastRoot runs the root side of the chosen algorithm (split out so tests
// can force one directly while non-roots follow the header).
func (c *Comm) bcastRoot(root wire.Rank, buf []byte, algo byte, seg int) error {
	switch algo {
	case collAlgSeg:
		return c.bcastSegRoot(root, buf, seg)
	case collAlgVdG:
		return c.bcastVdGRoot(root, buf)
	default:
		return c.bcastNaiveRoot(root, buf)
	}
}

// bcastRecv is the non-root side: receive the first message from the
// binomial parent (a deterministic source, so back-to-back broadcasts with
// different roots cannot cross-match) and follow its header.
func (c *Comm) bcastRecv(root wire.Rank) ([]byte, error) {
	n := c.cfg.Size
	v := c.collVrank(root)
	parent := collReal(binomialParent(v), root, n)
	first, st, err := c.Recv(parent, tagBcast)
	if err != nil {
		return nil, fmt.Errorf("bcast: %w", err)
	}
	algo, total, aux, err := parseCollHdr(first)
	if err != nil {
		return nil, fmt.Errorf("bcast: %w", err)
	}
	switch algo {
	case collAlgSeg:
		return c.bcastSegRecv(root, v, first, st, total, int(aux))
	case collAlgVdG:
		return c.bcastVdGRecv(root, v, first, st, total)
	default:
		return c.bcastNaiveRecv(root, v, first, st, total)
	}
}

// ---- naive: whole message down the binomial tree ----

func (c *Comm) bcastNaiveRoot(root wire.Rank, buf []byte) error {
	n := c.cfg.Size
	for _, child := range binomialChildren(0, n) {
		msg := wire.GetBuf(collHdrLen + len(buf))
		putCollHdr(msg, collAlgNaive, len(buf), 0)
		copy(msg[collHdrLen:], buf)
		wire.CountCopy(wire.CopyColl, len(buf))
		if err := c.SendOwned(collReal(child, root, n), tagBcast, msg); err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
	}
	return nil
}

func (c *Comm) bcastNaiveRecv(root wire.Rank, v int, first []byte, st Status, total int) ([]byte, error) {
	n := c.cfg.Size
	if len(first) != collHdrLen+total {
		return nil, fmt.Errorf("bcast: %w: header claims %d bytes, message carries %d", ErrBadLength, total, len(first)-collHdrLen)
	}
	// Forward the whole message (header included) to the children; the
	// result is the payload view of the delivered buffer.
	for _, child := range binomialChildren(v, n) {
		if err := c.Send(collReal(child, root, n), tagBcast, first); err != nil {
			return nil, fmt.Errorf("bcast: %w", err)
		}
	}
	return first[collHdrLen:], nil
}

// ---- seg: pipelined binomial tree ----

func (c *Comm) bcastSegRoot(root wire.Rank, buf []byte, seg int) error {
	n := c.cfg.Size
	total := len(buf)
	children := binomialChildren(0, n)
	for off := 0; off < total; off += seg {
		end := min(off+seg, total)
		for _, child := range children {
			real := collReal(child, root, n)
			var msg []byte
			tag := tagBcastSeg
			if off == 0 {
				// The first segment carries the header on the main tag.
				msg = wire.GetBuf(collHdrLen + end)
				putCollHdr(msg, collAlgSeg, total, uint32(seg))
				copy(msg[collHdrLen:], buf[:end])
				tag = tagBcast
			} else {
				msg = wire.GetBuf(end - off)
				copy(msg, buf[off:end])
			}
			wire.CountCopy(wire.CopyColl, end-off)
			wire.CountCollSeg(end - off)
			if err := c.SendOwned(real, tag, msg); err != nil {
				return fmt.Errorf("bcast: %w", err)
			}
		}
	}
	return nil
}

func (c *Comm) bcastSegRecv(root wire.Rank, v int, first []byte, st Status, total, seg int) ([]byte, error) {
	n := c.cfg.Size
	if seg <= 0 {
		return nil, fmt.Errorf("bcast: %w: segment size %d", ErrBadLength, seg)
	}
	parent := collReal(binomialParent(v), root, n)
	children := binomialChildren(v, n)
	// Pooled result (every segment is copied in below): ownership passes to
	// the caller, who may PutBuf it back or drop it.
	result := wire.GetBuf(total)

	// forward relays one segment (already copied into result) to every
	// child, moving the delivered buffer to the last one when it is pooled
	// and releasing it otherwise.
	forward := func(data []byte, pooled bool, tag int32, size int) error {
		for i, child := range children {
			real := collReal(child, root, n)
			var err error
			if pooled && i == len(children)-1 {
				err = c.SendOwned(real, tag, data)
				data = nil
			} else {
				err = c.Send(real, tag, data)
			}
			if err != nil {
				if pooled && data != nil {
					wire.PutBuf(data)
				}
				return fmt.Errorf("bcast: %w", err)
			}
			wire.CountCollSeg(size)
		}
		if pooled && data != nil {
			wire.PutBuf(data)
		}
		return nil
	}

	end := min(seg, total)
	if len(first) != collHdrLen+end {
		wire.PutBuf(result)
		if st.Pooled {
			wire.PutBuf(first)
		}
		return nil, fmt.Errorf("bcast: %w: first segment %d bytes, want %d", ErrBadLength, len(first)-collHdrLen, end)
	}
	copy(result, first[collHdrLen:])
	wire.CountCopy(wire.CopyColl, end)
	if err := forward(first, st.Pooled, tagBcast, end); err != nil {
		wire.PutBuf(result)
		return nil, err
	}
	for off := end; off < total; off += seg {
		segEnd := min(off+seg, total)
		data, sst, err := c.Recv(parent, tagBcastSeg)
		if err != nil {
			wire.PutBuf(result)
			return nil, fmt.Errorf("bcast: %w", err)
		}
		if len(data) != segEnd-off {
			wire.PutBuf(result)
			if sst.Pooled {
				wire.PutBuf(data)
			}
			return nil, fmt.Errorf("bcast: %w: segment %d bytes, want %d", ErrBadLength, len(data), segEnd-off)
		}
		copy(result[off:], data)
		wire.CountCopy(wire.CopyColl, segEnd-off)
		if err := forward(data, sst.Pooled, tagBcastSeg, segEnd-off); err != nil {
			wire.PutBuf(result)
			return nil, err
		}
	}
	return result, nil
}

// ---- vdG: binomial scatter + allgather ----

func (c *Comm) bcastVdGRoot(root wire.Rank, buf []byte) error {
	n := c.cfg.Size
	total := len(buf)
	_, offs := c.evenGeom(total, 1)
	children := binomialChildren(0, n)
	reqs := make([]*Request, 0, len(children))
	for i := len(children) - 1; i >= 0; i-- { // largest subtree first
		child := children[i]
		blk := buf[offs[child]:offs[subtreeEnd(child, n)]]
		msg := wire.GetBuf(collHdrLen + len(blk))
		putCollHdr(msg, collAlgVdG, total, 0)
		copy(msg[collHdrLen:], blk)
		wire.CountCopy(wire.CopyColl, len(blk))
		wire.CountCollSeg(len(blk))
		reqs = append(reqs, c.IsendOwned(collReal(child, root, n), tagBcast, msg))
	}
	if err := WaitAll(reqs...); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	// Allgather phase: the root already holds everything but must feed its
	// chunks into the exchange on schedule.
	if err := c.collAllgatherChunks(root, 0, buf, offs, true, tagBcastAG); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	return nil
}

func (c *Comm) bcastVdGRecv(root wire.Rank, v int, first []byte, st Status, total int) ([]byte, error) {
	n := c.cfg.Size
	_, offs := c.evenGeom(total, 1)
	end := subtreeEnd(v, n)
	if len(first) != collHdrLen+offs[end]-offs[v] {
		if st.Pooled {
			wire.PutBuf(first)
		}
		return nil, fmt.Errorf("bcast: %w: scatter block %d bytes, want %d", ErrBadLength, len(first)-collHdrLen, offs[end]-offs[v])
	}
	// Forward each child its subtree's chunk range, keep my own chunk.
	children := binomialChildren(v, n)
	reqs := make([]*Request, 0, len(children))
	for i := len(children) - 1; i >= 0; i-- {
		child := children[i]
		sub := first[collHdrLen+offs[child]-offs[v] : collHdrLen+offs[subtreeEnd(child, n)]-offs[v]]
		msg := wire.GetBuf(collHdrLen + len(sub))
		putCollHdr(msg, collAlgVdG, total, 0)
		copy(msg[collHdrLen:], sub)
		wire.CountCopy(wire.CopyColl, len(sub))
		wire.CountCollSeg(len(sub))
		reqs = append(reqs, c.IsendOwned(collReal(child, root, n), tagBcast, msg))
	}
	// Pooled result (own chunk copied here, the allgather fills the rest):
	// ownership passes to the caller, who may PutBuf it back or drop it.
	result := wire.GetBuf(total)
	mine := offs[v+1] - offs[v]
	copy(result[offs[v]:], first[collHdrLen:collHdrLen+mine])
	wire.CountCopy(wire.CopyColl, mine)
	if st.Pooled {
		wire.PutBuf(first)
	}
	if err := WaitAll(reqs...); err != nil {
		wire.PutBuf(result)
		return nil, fmt.Errorf("bcast: %w", err)
	}
	if err := c.collAllgatherChunks(root, v, result, offs, false, tagBcastAG); err != nil {
		wire.PutBuf(result)
		return nil, fmt.Errorf("bcast: %w", err)
	}
	return result, nil
}

// collAllgatherChunks completes a ring allgather over the n chunks whose
// byte boundaries are offs (in vrank space rotated by root): on entry rank
// v holds chunk v at data[offs[v]:offs[v+1]]; on return data holds all
// chunks. haveAll marks a rank (the vdG root) that already holds the full
// buffer — it feeds the exchange on schedule but skips the result copies.
//
// Only the first step stages a copy onto the wire; every later step
// forwards the pooled chunk received in the previous step with SendOwned,
// so a chunk circles the whole ring as one buffer and per-rank traffic is
// one staged chunk plus n-1 received-chunk copies.
func (c *Comm) collAllgatherChunks(root wire.Rank, v int, data []byte, offs []int, haveAll bool, tag int32) error {
	n := c.cfg.Size
	right := collReal((v+1)%n, root, n)
	left := collReal((v-1+n)%n, root, n)
	var fwd []byte // chunk received last step, to forward this step
	fwdPooled := false
	for s := 0; s < n-1; s++ {
		recvIdx := (v - s - 1 + n) % n
		var err error
		switch {
		case s == 0:
			seg := data[offs[v]:offs[v+1]]
			wire.CountCollSeg(len(seg))
			err = c.Send(right, tag, seg)
		case fwdPooled:
			wire.CountCollSeg(len(fwd))
			err = c.SendOwned(right, tag, fwd)
		default:
			wire.CountCollSeg(len(fwd))
			err = c.Send(right, tag, fwd)
		}
		if err != nil {
			return err
		}
		// A plain blocking Recv: the NIC's receiver loop queues the chunk
		// from the left neighbor whether or not a receive is posted, so no
		// Irecv (request + goroutine) is needed for progress.
		got, st, err := c.Recv(left, tag)
		if err != nil {
			return err
		}
		if len(got) != offs[recvIdx+1]-offs[recvIdx] {
			if st.Pooled {
				wire.PutBuf(got)
			}
			return fmt.Errorf("%w: allgather chunk %d bytes, want %d", ErrBadLength, len(got), offs[recvIdx+1]-offs[recvIdx])
		}
		if !haveAll {
			copy(data[offs[recvIdx]:], got)
			wire.CountCopy(wire.CopyColl, len(got))
		}
		fwd, fwdPooled = got, st.Pooled
	}
	if fwdPooled {
		wire.PutBuf(fwd)
	}
	return nil
}
