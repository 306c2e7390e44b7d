package mpi

import (
	"encoding/binary"
	"fmt"

	"starfish/internal/wire"
)

// Rooted fan-out/fan-in collectives. Scatter and Gather run over the
// binomial tree: because the subtree under vrank v is the contiguous range
// [v, v+lowbit(v)), a child's whole subtree travels as one packed block —
// [u32 count][count x u32 lengths][payloads] in vrank order — built in a
// pooled buffer and moved with SendOwned/IsendOwned, so the root's fan-out
// is log2(n) concurrent sends instead of n-1 sequential ones.

// packGatherBlock writes entries into dst (sized by gatherBlockLen).
func packGatherBlock(dst []byte, entries [][]byte) {
	binary.LittleEndian.PutUint32(dst, uint32(len(entries)))
	off := 4 + 4*len(entries)
	for i, e := range entries {
		binary.LittleEndian.PutUint32(dst[4+4*i:], uint32(len(e)))
		copy(dst[off:], e)
		off += len(e)
	}
}

func gatherBlockLen(entries [][]byte) (total, payload int) {
	payload = 0
	for _, e := range entries {
		payload += len(e)
	}
	return 4 + 4*len(entries) + payload, payload
}

// buildGatherBlock packs entries into a pooled buffer.
func buildGatherBlock(entries [][]byte) []byte {
	total, payload := gatherBlockLen(entries)
	blk := wire.GetBuf(total)
	packGatherBlock(blk, entries)
	wire.CountCopy(wire.CopyColl, payload)
	wire.CountCollSeg(payload)
	return blk
}

// parseGatherBlock splits a packed block into its entries (views into b).
func parseGatherBlock(b []byte, want int) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte block", ErrBadLength, len(b))
	}
	cnt := int(binary.LittleEndian.Uint32(b))
	if cnt != want {
		return nil, fmt.Errorf("%w: block carries %d entries, want %d", ErrBadLength, cnt, want)
	}
	if len(b) < 4+4*cnt {
		return nil, fmt.Errorf("%w: %d-byte block for %d entries", ErrBadLength, len(b), cnt)
	}
	out := make([][]byte, cnt)
	off := 4 + 4*cnt
	for i := 0; i < cnt; i++ {
		l := int(binary.LittleEndian.Uint32(b[4+4*i:]))
		if off+l > len(b) {
			return nil, fmt.Errorf("%w: entry %d overruns the block", ErrBadLength, i)
		}
		out[i] = b[off : off+l : off+l]
		off += l
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in block", ErrBadLength, len(b)-off)
	}
	return out, nil
}

// Gather collects every rank's contribution at root; root receives a slice
// indexed by rank. Non-root ranks return nil. Subtree blocks merge up the
// binomial tree, with every child's receive posted before any arrives.
func (c *Comm) Gather(root wire.Rank, contrib []byte) ([][]byte, error) {
	n := c.cfg.Size
	if n == 1 {
		return [][]byte{contrib}, nil
	}
	v := c.collVrank(root)
	children := binomialChildren(v, n)
	reqs := make([]*Request, len(children))
	for i, child := range children {
		reqs[i] = c.Irecv(collReal(child, root, n), tagGather)
	}
	// entries[j] is vrank v+j's contribution; my subtree is contiguous.
	entries := make([][]byte, subtreeEnd(v, n)-v)
	entries[0] = contrib
	blocks := make([][]byte, 0, len(children)) // pooled child blocks still alive
	release := func() {
		for _, b := range blocks {
			wire.PutBuf(b)
		}
	}
	for i, child := range children {
		data, st, err := reqs[i].Wait()
		if err != nil {
			release()
			return nil, fmt.Errorf("gather: %w", err)
		}
		sub, err := parseGatherBlock(data, subtreeEnd(child, n)-child)
		if err != nil {
			if st.Pooled {
				wire.PutBuf(data)
			}
			release()
			return nil, fmt.Errorf("gather: %w", err)
		}
		copy(entries[child-v:], sub)
		if st.Pooled {
			blocks = append(blocks, data)
		}
	}
	if v != 0 {
		blk := buildGatherBlock(entries)
		release() // entry bytes are packed into blk; child blocks retire
		parent := collReal(binomialParent(v), root, n)
		if err := c.SendOwned(parent, tagGather, blk); err != nil {
			return nil, fmt.Errorf("gather: %w", err)
		}
		return nil, nil
	}
	// Root: place entries by real rank. They may alias the delivered
	// pooled blocks, whose ownership passes to the caller's result.
	out := make([][]byte, n)
	for j, e := range entries {
		out[(j+int(root))%n] = e
	}
	return out, nil
}

// Scatter distributes parts (indexed by rank, only meaningful at root) so
// each rank receives parts[rank]. Each child gets its subtree's parts as one
// packed block, fanned out with non-blocking owned sends (largest subtree
// first).
func (c *Comm) Scatter(root wire.Rank, parts [][]byte) ([]byte, error) {
	n := c.cfg.Size
	if c.cfg.Rank == root && len(parts) != n {
		return nil, fmt.Errorf("scatter: %w: %d parts for %d ranks", ErrBadLength, len(parts), n)
	}
	if n == 1 {
		return parts[root], nil
	}
	v := c.collVrank(root)
	children := binomialChildren(v, n)

	fanOut := func(entries [][]byte) error {
		reqs := make([]*Request, 0, len(children))
		for i := len(children) - 1; i >= 0; i-- {
			child := children[i]
			blk := buildGatherBlock(entries[child-v : subtreeEnd(child, n)-v])
			reqs = append(reqs, c.IsendOwned(collReal(child, root, n), tagScatter, blk))
		}
		return WaitAll(reqs...)
	}

	if v == 0 {
		entries := make([][]byte, n)
		for vr := 0; vr < n; vr++ {
			entries[vr] = parts[(vr+int(root))%n]
		}
		if err := fanOut(entries); err != nil {
			return nil, fmt.Errorf("scatter: %w", err)
		}
		return parts[root], nil
	}
	parent := collReal(binomialParent(v), root, n)
	blk, st, err := c.Recv(parent, tagScatter)
	if err != nil {
		return nil, fmt.Errorf("scatter: %w", err)
	}
	entries, err := parseGatherBlock(blk, subtreeEnd(v, n)-v)
	if err != nil {
		if st.Pooled {
			wire.PutBuf(blk)
		}
		return nil, fmt.Errorf("scatter: %w", err)
	}
	err = fanOut(entries) // sub-blocks are copies, taken before blk retires
	mine := make([]byte, len(entries[0]))
	copy(mine, entries[0])
	wire.CountCopy(wire.CopyColl, len(mine))
	if st.Pooled {
		wire.PutBuf(blk)
	}
	if err != nil {
		return nil, fmt.Errorf("scatter: %w", err)
	}
	return mine, nil
}
