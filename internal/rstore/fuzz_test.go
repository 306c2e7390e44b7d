package rstore

import (
	"encoding/binary"
	"runtime"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// FuzzPeerFrames feeds a store what a peer connection can deliver: two
// requests in a row, each an arbitrary (Kind, Payload) single frame or, for
// kPut, the pair with an arbitrary second frame. Whatever arrives, the store
// must not panic, must not size an allocation from a count the frame does not
// back, and must never hold a slot naming a block it does not hold.
func FuzzPeerFrames(f *testing.F) {
	img := chunkEpochs(1, 2)[0]
	var refs []ckpt.BlockRef
	blockPut := binary.BigEndian.AppendUint32(nil, 2)
	for _, b := range ckpt.SplitBlocks(img) {
		ref := ckpt.BlockRef{ID: ckpt.HashBlock(b), Len: uint32(len(b))}
		refs = append(refs, ref)
		blockPut = append(blockPut, ref.ID[:]...)
		blockPut = binary.BigEndian.AppendUint32(blockPut, ref.Len)
		blockPut = append(blockPut, b...)
	}
	full := ckpt.EncodeFullRecord(len(img), refs)
	delta := ckpt.EncodeDeltaRecord(1, len(img), len(img), []ckpt.DeltaRef{{Index: 1, Ref: refs[0]}})
	meta := encodeTagMeta(7<<32|1, &ckpt.Meta{Rank: 0, Index: 1})
	huge := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)

	f.Add(kBlockPut, blockPut, []byte(nil), kPut, meta, full)             // blocks, then their record: installed
	f.Add(kPut, meta, full, kPut, meta, delta)                            // a record ahead of its blocks: refused
	f.Add(kPut, meta, []byte("a raw image"), kHas, meta[:8], []byte(nil)) // names no blocks: installed, had
	f.Add(kPut, meta[:5], full, kPut, meta, full[:len(full)-3])           // truncated metadata, truncated envelope
	f.Add(kBlockHas, huge, []byte(nil), kBlockPut, huge, []byte(nil))     // counts no payload backs
	f.Add(kCommit, huge, []byte(nil), kIndex, huge, []byte(nil))
	f.Add(kBlockGet, refs[0].ID[:], []byte(nil), kGet, []byte(nil), []byte(nil))
	f.Add(kGC, []byte(nil), []byte(nil), kDrop, []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, k1 uint16, p1, d1 []byte, k2 uint16, p2, d2 []byte) {
		s, err := New(Config{Node: 1, Transport: vni.NewFastnet(0), Addr: addr(1), PeerAddr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, fr := range []struct {
			kind    uint16
			payload []byte
			data    []byte
		}{{k1, p1, d1}, {k2, p2, d2}} {
			m := &wire.Msg{Type: wire.TControl, Kind: fr.kind, App: 1, Src: 0, Seq: uint64(fr.kind), Payload: fr.payload}
			if fr.kind == kPut {
				s.handlePut(m, &wire.Msg{Type: wire.TControl, Kind: kPutData, Payload: fr.data})
			} else {
				s.handle(m)
			}
		}
		runtime.ReadMemStats(&after)
		if got, in := after.TotalAlloc-before.TotalAlloc, len(p1)+len(d1)+len(p2)+len(d2); got > 1<<20+64*uint64(in) {
			t.Fatalf("%d bytes of frames made the store allocate %d", in, got)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for k, e := range s.images {
			eachRef(e.rec, func(r ckpt.BlockRef) {
				if _, ok := s.blocks[r.ID]; !ok {
					t.Fatalf("slot %+v installed without block %s", k, r.ID)
				}
			})
		}
	})
}
