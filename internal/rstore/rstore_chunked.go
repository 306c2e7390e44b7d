package rstore

import (
	"encoding/binary"
	"fmt"

	"starfish/internal/ckpt"
	"starfish/internal/wire"
)

// The block half of the store: the content-addressed shard the slots' records
// name, its reference counts, the materialized images, and the block messages
// of the push (rstore.go's package comment has the protocol).

// resolvedImage is the materialized raw image behind one record, with the
// content address of each of its blocks (nil for a chain-walked image). Once
// a reader was handed raw (published) it is immutable; until then the rank's
// next record is applied onto it in place.
type resolvedImage struct {
	raw       []byte
	ids       []ckpt.BlockID
	published bool
}

// blockBatchTarget bounds one kBlockPut frame (plus one block of slack).
const blockBatchTarget = 1 << 20

// GetBlock serves a content-addressed block from the local shard, falling
// back to peers (holders of (app, rank) first) and caching the result.
func (s *Store) GetBlock(app wire.AppID, rank wire.Rank, ref ckpt.BlockRef) ([]byte, error) {
	s.mu.Lock()
	if be, ok := s.blocks[ref.ID]; ok {
		d := be.data
		s.mu.Unlock()
		return d, nil
	}
	peers := s.fetchOrderLocked(app, rank)
	s.mu.Unlock()
	for _, peer := range peers {
		m := &wire.Msg{Type: wire.TControl, Kind: kBlockGet, Payload: ref.ID[:]}
		reply, err := s.request(peer, m)
		if err != nil || reply.Kind != kBlockOK || uint32(len(reply.Payload)) != ref.Len {
			continue
		}
		data := reply.Payload // the transport's copy, retained by aliasing
		s.mu.Lock()
		if _, ok := s.blocks[ref.ID]; !ok {
			s.blocks[ref.ID] = &blockEntry{data: data}
		}
		s.mu.Unlock()
		return data, nil
	}
	return nil, fmt.Errorf("%w: block %s (no in-memory replica)", ckpt.ErrMissingBlock, ref.ID)
}

// ---------------------------------------------------------------------------
// Local bookkeeping (all *Locked: callers hold s.mu)
// ---------------------------------------------------------------------------

// setSlotLocked installs img, which decodes to rec (nil: a raw image), in
// slot k under the tag of the put that produced it, adjusting block reference
// counts: the new record's blocks are referenced before the old one's are
// released, so blocks shared by both never dip to zero. Any previously
// materialized image for the slot is stale.
func (s *Store) setSlotLocked(k key, img []byte, rec *ckpt.Record, meta *ckpt.Meta, tag uint64) *entry {
	s.refRecLocked(rec, 1)
	e, ok := s.images[k]
	if ok {
		s.refRecLocked(e.rec, -1)
		e.img, e.meta, e.tag, e.rec = img, meta, tag, rec
	} else {
		e = &entry{img: img, meta: meta, tag: tag, rec: rec}
		s.images[k] = e
	}
	delete(s.resolved, k)
	return e
}

// deleteImageLocked removes slot k and every piece of state hanging off it
// (block references, replica acks, the materialized image).
func (s *Store) deleteImageLocked(k key) {
	if e, ok := s.images[k]; ok {
		s.refRecLocked(e.rec, -1)
		delete(s.images, k)
	}
	delete(s.acked, k)
	delete(s.resolved, k)
}

// eachRef calls f with every block reference of a record, in order (one call
// per occurrence): RecordRefs without the slice. A nil record has none.
func eachRef(rec *ckpt.Record, f func(ckpt.BlockRef)) {
	if rec == nil {
		return
	}
	for _, r := range rec.Refs {
		f(r)
	}
	for _, d := range rec.Deltas {
		f(d.Ref)
	}
}

// refRecLocked adjusts the reference counts of every block a record names
// (one count per occurrence). Raw images (nil) are a no-op. A block gaining
// its first reference no longer needs its pre-record pin; a block dropping
// to zero unpinned references is garbage.
func (s *Store) refRecLocked(rec *ckpt.Record, d int) {
	eachRef(rec, func(r ckpt.BlockRef) {
		be := s.blocks[r.ID]
		if be == nil {
			return
		}
		be.refs += d
		if d > 0 {
			be.pinned = false
		}
		if be.refs <= 0 && !be.pinned {
			delete(s.blocks, r.ID)
		}
	})
}

// materializeLocked eagerly reconstructs the raw image behind the record in
// slot k as patches onto the rank's previous materialization — one resident
// raw image per rank bounds the cache, and restores overwhelmingly want the
// newest epoch. A delta record patches its changed blocks onto its base; a
// full record the blocks whose address differs from the one that image holds
// there (all of them when there is no such image). While no reader was handed
// the previous image the patches go onto it in place, so an epoch costs what
// changed, not the image. Failure is silent: the cold chain walk in
// Get still works.
func (s *Store) materializeLocked(k key) {
	e := s.images[k]
	if e == nil || e.rec == nil {
		return
	}
	rec := e.rec
	var prev *resolvedImage
	for rk, r := range s.resolved {
		if rk.app == k.app && rk.rank == k.rank && rk.n < k.n && (rec.Kind == ckpt.RecFull || rk.n == rec.Base) {
			prev = r
		}
	}
	nBlocks := (rec.RawLen + ckpt.DeltaBlockSize - 1) / ckpt.DeltaBlockSize
	patches := rec.Deltas
	switch rec.Kind {
	case ckpt.RecDelta:
		if prev == nil || len(prev.raw) != rec.BaseLen {
			return
		}
	case ckpt.RecFull:
		if len(rec.Refs) != nBlocks {
			return
		}
		if prev != nil && (len(prev.raw) != rec.RawLen || len(prev.ids) != nBlocks) {
			prev = nil
		}
		for i, ref := range rec.Refs {
			if prev == nil || prev.ids[i] != ref.ID {
				patches = append(patches, ckpt.DeltaRef{Index: uint32(i), Ref: ref})
			}
		}
	default:
		return
	}
	// Every patch must fill its whole block slot from a local block.
	for _, d := range patches {
		lo := int(d.Index) * ckpt.DeltaBlockSize
		be := s.blocks[d.Ref.ID]
		if be == nil || lo >= rec.RawLen || len(be.data) != min(ckpt.DeltaBlockSize, rec.RawLen-lo) {
			return
		}
	}
	img := prev
	if prev == nil || prev.published || len(prev.raw) != rec.RawLen {
		// A published image is immutable (Get returned pointers to it).
		img = &resolvedImage{raw: make([]byte, rec.RawLen), ids: make([]ckpt.BlockID, nBlocks)}
		if prev != nil {
			copy(img.raw, prev.raw)
			copy(img.ids, prev.ids)
		}
	}
	for _, d := range patches {
		copy(img.raw[int(d.Index)*ckpt.DeltaBlockSize:], s.blocks[d.Ref.ID].data)
		img.ids[d.Index] = d.Ref.ID
	}
	for rk := range s.resolved {
		if rk.app == k.app && rk.rank == k.rank && rk.n < k.n {
			delete(s.resolved, rk)
		}
	}
	s.resolved[k] = img
}

// ---------------------------------------------------------------------------
// Pusher side
// ---------------------------------------------------------------------------

// blockQuery asks a peer which of the given blocks it already holds and
// returns the ones it does not, with the bytes the query cost.
func (s *Store) blockQuery(peer wire.NodeID, refs []ckpt.BlockRef) ([]ckpt.BlockRef, int, error) {
	if len(refs) == 0 {
		return nil, 0, nil
	}
	payload := make([]byte, 0, 4+32*len(refs))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(refs)))
	for _, r := range refs {
		payload = append(payload, r.ID[:]...)
	}
	m := &wire.Msg{Type: wire.TControl, Kind: kBlockHas, Payload: payload}
	reply, err := s.request(peer, m)
	if err != nil {
		return nil, 0, err
	}
	if reply.Kind != kHasOK || len(reply.Payload) != len(refs) {
		return nil, 0, fmt.Errorf("rstore: bad kBlockHas reply from node %d", peer)
	}
	var missing []ckpt.BlockRef
	for i, held := range reply.Payload {
		if held == 0 {
			missing = append(missing, refs[i])
		}
	}
	return missing, len(payload), nil
}

// pushBlocks sends block contents to a peer in ~1 MiB batches, each gathered
// into a pooled buffer (capacity rounded up to the pool's power-of-two class)
// that moves to the peer copy-free — so a batch whose exchange failed is
// gathered again, here, for each retry. It returns the bytes sent.
func (s *Store) pushBlocks(peer wire.NodeID, refs []ckpt.BlockRef) (int, error) {
	sent := 0
	for i := 0; i < len(refs); {
		// Snapshot the batch's data slice headers under mu; block data is
		// immutable once stored, so building the frame outside mu is safe.
		s.mu.Lock()
		var datas [][]byte
		size := 4
		j := i
		for j < len(refs) && (j == i || size < blockBatchTarget) {
			be := s.blocks[refs[j].ID]
			if be == nil {
				s.mu.Unlock()
				return sent, fmt.Errorf("rstore: local block %s vanished mid-push", refs[j].ID)
			}
			datas = append(datas, be.data)
			size += 36 + len(be.data)
			j++
		}
		s.mu.Unlock()

		var err error
		for attempt := 0; attempt <= s.cfg.RequestRetries; attempt++ {
			buf := wire.GetBuf(size)
			binary.BigEndian.PutUint32(buf, uint32(j-i))
			off := 4
			for bi, data := range datas {
				id := refs[i+bi].ID
				copy(buf[off:], id[:])
				binary.BigEndian.PutUint32(buf[off+32:], uint32(len(data)))
				copy(buf[off+36:], data)
				off += 36 + len(data)
			}
			m := &wire.Msg{Type: wire.TControl, Kind: kBlockPut, Payload: buf, Pooled: true}
			var reply wire.Msg
			if reply, err = s.request(peer, m); err == nil && reply.Kind != kOK {
				err = fmt.Errorf("rstore: bad kBlockPut reply from node %d", peer)
			}
			if err == nil || s.isClosed() {
				break
			}
		}
		if err != nil {
			return sent, err
		}
		sent += size
		i = j
	}
	return sent, nil
}

// ---------------------------------------------------------------------------
// Receiver side (called from handle; single-frame requests)
// ---------------------------------------------------------------------------

// handleBlockHas answers a need/have query: one byte per queried id.
func (s *Store) handleBlockHas(m *wire.Msg) *wire.Msg {
	p := m.Payload
	if len(p) < 4 {
		return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
	}
	count := binary.BigEndian.Uint32(p)
	if uint64(len(p)) != 4+32*uint64(count) {
		return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
	}
	held := make([]byte, count)
	var id ckpt.BlockID
	s.mu.Lock()
	for i := range held {
		copy(id[:], p[4+32*i:])
		if _, ok := s.blocks[id]; ok {
			held[i] = 1
		}
	}
	s.mu.Unlock()
	return &wire.Msg{Type: wire.TControl, Kind: kHasOK, Payload: held}
}

// handleBlockPut stores a batch of blocks, pinned until a slot names them.
// Block data aliases the pooled receive frame, which is retained.
func (s *Store) handleBlockPut(m *wire.Msg) *wire.Msg {
	p := m.Payload
	if len(p) < 4 {
		return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
	}
	count := binary.BigEndian.Uint32(p)
	off := 4
	s.mu.Lock()
	for i := uint32(0); i < count; i++ {
		if off+36 > len(p) {
			s.mu.Unlock()
			return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
		}
		var id ckpt.BlockID
		copy(id[:], p[off:])
		blen := int(binary.BigEndian.Uint32(p[off+32:]))
		if off+36+blen > len(p) {
			s.mu.Unlock()
			return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
		}
		if be, ok := s.blocks[id]; ok {
			be.pinned = be.pinned || be.refs <= 0
		} else {
			s.blocks[id] = &blockEntry{data: p[off+36 : off+36+blen], pinned: true}
		}
		off += 36 + blen
	}
	s.mu.Unlock()
	return &wire.Msg{Type: wire.TControl, Kind: kOK}
}

// handleBlockGet serves one block by content address.
func (s *Store) handleBlockGet(m *wire.Msg) *wire.Msg {
	if len(m.Payload) != 32 {
		return &wire.Msg{Type: wire.TControl, Kind: kBlockMiss}
	}
	var id ckpt.BlockID
	copy(id[:], m.Payload)
	s.mu.Lock()
	be, ok := s.blocks[id]
	var data []byte
	if ok {
		data = be.data
	}
	s.mu.Unlock()
	if !ok {
		return &wire.Msg{Type: wire.TControl, Kind: kBlockMiss}
	}
	return &wire.Msg{Type: wire.TControl, Kind: kBlockOK, Payload: data}
}
