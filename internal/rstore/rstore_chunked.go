package rstore

import (
	"encoding/binary"
	"fmt"

	"starfish/internal/ckpt"
	"starfish/internal/wire"
)

// Chunked (content-addressed) replication — the rstore half of the
// incremental checkpoint pipeline (see ckpt.Pipeline).
//
// A record epoch replicates in three steps, all idempotent:
//
//  1. kBlockHas asks the holder which of the record's blocks it already has
//     (cross-epoch and cross-rank dedup: unchanged blocks and blocks shared
//     with other ranks are never sent again).
//  2. kBlockPut pushes the missing blocks, batched. The receiver pins them:
//     a pinned block survives GC until the record referencing it lands.
//  3. kPutRec pushes the record envelope. The receiver accepts it only if
//     every referenced block is present, replying with the still-missing ids
//     otherwise (a GC broadcast may race step 2), and the pusher re-pushes
//     and retries until the reply is empty.
//
// Holders materialize the raw image behind the newest record of each
// (app, rank) eagerly as records arrive (s.resolved), so a restore from a
// delta chain is a map lookup — pointer-speed, like raw-image restores —
// instead of a block-by-block chain walk.

var _ ckpt.ChunkedBackend = (*Store)(nil)
var _ ckpt.RecordResolver = (*Store)(nil)
var _ ckpt.EnvelopeGetter = (*Store)(nil)

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

// PutRecord stores a record epoch locally and replicates it to the holder
// peers: new blocks into the content-addressed shard, the envelope into the
// ordinary (app, rank, n) image slot.
func (s *Store) PutRecord(app wire.AppID, rank wire.Rank, n uint64, env []byte, blocks []ckpt.RecBlock, meta *ckpt.Meta) error {
	if meta == nil {
		meta = &ckpt.Meta{Rank: rank, Index: n}
	}
	k := key{app, rank, n}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("rstore: store closed")
	}
	for _, b := range blocks {
		if _, ok := s.blocks[b.Ref.ID]; !ok {
			// Block data is only valid for the duration of the call
			// (ChunkedBackend contract): copy.
			s.blocks[b.Ref.ID] = &blockEntry{data: append([]byte(nil), b.Data...)}
		}
	}
	tag := s.nextTagLocked()
	e := s.setImageLocked(k, env, meta, tag)
	targets, rec := s.pushTargetsLocked(k, e), e.rec
	delete(s.acked, k) // acks were for the record this Put replaces
	s.indexAddLocked(app, rank, n)
	s.materializeLocked(k)
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()

	mb := encodeTagMeta(tag, meta)
	for _, h := range targets {
		if _, err := s.pushRecord(h, k, mb, env, rec); err != nil {
			s.logf("[rstore %d] push record #%d of app %d rank %d to node %d: %v",
				s.cfg.Node, n, app, rank, h, err)
		}
	}
	s.broadcastIndex(members, []key{k})
	return s.closedUnderPut()
}

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

// ResolveRecord returns the raw image behind checkpoint n of (app, rank):
// raw images pass through, record chains come from the materialized cache
// when the newest epoch is asked for, and are chain-walked otherwise.
func (s *Store) ResolveRecord(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	img, meta, err := s.getImage(app, rank, n)
	if err != nil {
		return nil, nil, err
	}
	if !ckpt.IsRecord(img) {
		return img, meta, nil
	}
	raw, err := s.resolveEnv(app, rank, n, img)
	if err != nil {
		return nil, nil, err
	}
	return raw, meta, nil
}

// resolveEnv reconstructs the raw image behind record envelope env.
func (s *Store) resolveEnv(app wire.AppID, rank wire.Rank, n uint64, env []byte) ([]byte, error) {
	k := key{app, rank, n}
	s.mu.Lock()
	if r, ok := s.resolved[k]; ok {
		r.published = true
		s.mu.Unlock()
		return r.raw, nil
	}
	s.mu.Unlock()
	// Cold path: the chain walk reads earlier links through GetEnvelope, so
	// it sees envelopes, never recursively resolved images.
	raw, err := ckpt.ResolveChain(s, app, rank, n, env)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.resolved[k] = &resolvedImage{raw: raw, published: true}
	s.mu.Unlock()
	return raw, nil
}

// GetEnvelope returns slot n's stored bytes verbatim — the record envelope
// for chunked epochs — unlike Get, which resolves records into raw images.
// Chain walkers (GC clamping, ckpt.ResolveChain) depend on seeing the links.
func (s *Store) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	return s.getImage(app, rank, n)
}

// ---------------------------------------------------------------------------
// Local bookkeeping (all *Locked: callers hold s.mu)
// ---------------------------------------------------------------------------

// setImageLocked installs img (raw image or record envelope) in slot k under
// the tag of the Put that produced it, adjusting block reference counts: the
// new envelope's blocks are referenced before the old one's are released, so
// blocks shared by both never dip to zero. Any previously materialized image
// for the slot is stale.
func (s *Store) setImageLocked(k key, img []byte, meta *ckpt.Meta, tag uint64) *entry {
	rec, err := ckpt.DecodeRecord(img)
	if err != nil {
		rec = nil // a raw image (or an undecodable envelope): opaque bytes
	}
	return s.setRecLocked(k, img, rec, meta, tag)
}

// setRecLocked is setImageLocked for a caller that has img decoded already
// (rec nil: a raw image).
func (s *Store) setRecLocked(k key, img []byte, rec *ckpt.Record, meta *ckpt.Meta, tag uint64) *entry {
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
// resolveEnv still works.
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

// pushRecord replicates one record epoch (env, which decodes to rec) to a
// peer: need/have negotiation, missing blocks, then the envelope, looping on
// the kRecOK still-missing list until the peer holds the complete record. It
// returns the bytes that crossed, whether or not the push completed.
func (s *Store) pushRecord(peer wire.NodeID, k key, metaBytes, env []byte, rec *ckpt.Record) (int, error) {
	sent := 0
	err := fmt.Errorf("rstore: checkpoint %d of app %d rank %d is not a record", k.n, k.app, k.rank)
	if rec != nil {
		err = fmt.Errorf("rstore: record push to node %d never completed", peer)
		lens := make(map[ckpt.BlockID]uint32, len(rec.Refs)+len(rec.Deltas))
		need := make([]ckpt.BlockRef, 0, len(rec.Refs)+len(rec.Deltas))
		eachRef(rec, func(r ckpt.BlockRef) {
			if _, ok := lens[r.ID]; !ok {
				lens[r.ID] = r.Len
				need = append(need, r)
			}
		})
		for attempt := 0; attempt <= s.cfg.RequestRetries; attempt++ {
			var missing []ckpt.BlockRef
			var n int
			missing, n, err = s.blockQuery(peer, need)
			sent += n
			if err == nil {
				n, err = s.pushBlocks(peer, missing)
				sent += n
			}
			var still []ckpt.BlockID
			if err == nil {
				still, n, err = s.putRec(peer, k, metaBytes, env)
				sent += n
			}
			if err == nil && len(still) == 0 {
				break
			}
			if err == nil {
				// The peer GCed blocks between our pushes: push exactly
				// those again next round.
				need = need[:0]
				for _, id := range still {
					if n, ok := lens[id]; ok {
						need = append(need, ckpt.BlockRef{ID: id, Len: n})
					}
				}
				err = fmt.Errorf("rstore: node %d still missing %d blocks", peer, len(still))
			}
			if s.isClosed() {
				break
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushes++
	s.repBytes += uint64(sent)
	if err != nil {
		s.pushFailures++
		return sent, err
	}
	s.ackLocked(k, peer)
	return sent, nil
}

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
// that moves to the peer copy-free. It returns the bytes sent.
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
		reply, err := s.request(peer, m)
		if err != nil {
			return sent, err
		}
		if reply.Kind != kOK {
			return sent, fmt.Errorf("rstore: bad kBlockPut reply from node %d", peer)
		}
		sent += size
		i = j
	}
	return sent, nil
}

// putRec sends the record envelope; the reply lists blocks the peer is
// (still) missing — empty means the record landed.
func (s *Store) putRec(peer wire.NodeID, k key, metaBytes, env []byte) ([]ckpt.BlockID, int, error) {
	payload := make([]byte, 0, 4+len(metaBytes)+len(env))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(metaBytes)))
	payload = append(payload, metaBytes...)
	payload = append(payload, env...)
	m := &wire.Msg{
		Type: wire.TControl, Kind: kPutRec,
		App: k.app, Src: k.rank, Seq: k.n,
		Payload: payload,
	}
	reply, err := s.request(peer, m)
	if err != nil {
		return nil, 0, err
	}
	count := uint32(0)
	if len(reply.Payload) >= 4 {
		count = binary.BigEndian.Uint32(reply.Payload)
	}
	if reply.Kind != kRecOK || uint64(len(reply.Payload)) != 4+32*uint64(count) {
		return nil, 0, fmt.Errorf("rstore: bad kPutRec reply from node %d", peer)
	}
	still := make([]ckpt.BlockID, count)
	for i := range still {
		copy(still[i][:], reply.Payload[4+32*i:])
	}
	return still, len(payload), nil
}

// ---------------------------------------------------------------------------
// Receiver side (called from handle; single-frame requests)
// ---------------------------------------------------------------------------

// handlePutRec installs a record envelope if every block it references is
// local, and otherwise replies with the missing ids so the pusher can try
// again — the closing move of the push protocol's GC race.
func (s *Store) handlePutRec(m *wire.Msg) *wire.Msg {
	env, meta, tag, err := decodeMetaEnv(m.Payload)
	if err != nil {
		return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
	}
	rec, err := ckpt.DecodeRecord(env)
	if err != nil {
		return &wire.Msg{Type: wire.TControl, Kind: kGetMiss}
	}
	k := key{m.App, m.Src, m.Seq}
	s.mu.Lock()
	var missing []ckpt.BlockID
	seen := map[ckpt.BlockID]bool{} // of the missing: empty but for the GC race
	eachRef(rec, func(r ckpt.BlockRef) {
		if _, ok := s.blocks[r.ID]; !ok && !seen[r.ID] {
			seen[r.ID] = true
			missing = append(missing, r.ID)
		}
	})
	if len(missing) == 0 {
		s.setRecLocked(k, env, rec, meta, tag)
		s.indexAddLocked(m.App, m.Src, m.Seq)
		s.materializeLocked(k)
	}
	s.mu.Unlock()
	payload := make([]byte, 0, 4+32*len(missing))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(missing)))
	for _, id := range missing {
		payload = append(payload, id[:]...)
	}
	return &wire.Msg{Type: wire.TControl, Kind: kRecOK, Payload: payload}
}

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

// handleBlockPut stores a batch of blocks, pinned until a record references
// them. Block data aliases the pooled receive frame, which is retained.
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
