package rstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// capture is a ckpt.Backend that keeps the records a Pipeline hands it, by
// slot, and does nothing else.
type capture struct {
	ckpt.Backend
	recs map[uint64][]byte
}

func (c *capture) PutRecord(_ wire.AppID, _ wire.Rank, n uint64, rec []byte, _ *ckpt.Meta) error {
	c.recs[n] = rec
	return nil
}

// records writes imgs as slots 1, 2, ... of one rank through a Pipeline and
// returns the records it made.
func records(imgs ...[]byte) map[uint64][]byte {
	c := &capture{recs: map[uint64][]byte{}}
	p := ckpt.NewPipeline(c, 0)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n+1), img, nil); err != nil {
			panic(err)
		}
	}
	return c.recs
}

// FuzzPeerFrames feeds a store what a peer connection can deliver: two
// requests in a row, for slots 1 and 2, each an arbitrary (Kind, Payload)
// single frame or, for kPut, the pair with an arbitrary second frame. Whatever
// arrives, the store must not panic, must not size an allocation from a count
// the frame does not back, and must never hold a record naming a slot it does
// not hold.
func FuzzPeerFrames(f *testing.F) {
	img := chunkEpochs(1, 2)[0]
	zeroed := bytes.Clone(img)
	clear(zeroed[ckpt.DeltaBlockSize:])
	full := records(img, zeroed) // slot 1 carries both blocks, slot 2 is a carry list
	whole := ckpt.ImageRecord(1, img)
	if !bytes.Equal(whole, full[1]) {
		f.Fatal("a rank's first record is not the image's record")
	}
	corrupt := bytes.Clone(full[1]) // a block that fails its crc32c
	corrupt[len(corrupt)-1] ^= 1
	r, err := ckpt.DecodeRecord(full[1])
	if err != nil {
		f.Fatal(err)
	}
	kept := r.Keep([]uint32{0}) // a cut-down record, which resolves to nothing
	hdr := encodeSlotHeader(7<<32|1, slotRecord, &ckpt.Meta{Rank: 0, Index: 1})
	// Slot kind 0 — the retired raw slot — must be refused.
	retired := encodeSlotHeader(7<<32|2, 0, &ckpt.Meta{Rank: 0, Index: 1})
	if _, _, _, err := decodeSlotHeader(retired); err == nil {
		f.Fatal("a slot header of retired kind 0 decodes")
	}
	huge := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)

	f.Add(kPut, hdr, whole, kHas, hdr[:8], []byte(nil))                         // a record carrying its whole image: installed, had
	f.Add(kPut, hdr, full[1], kPut, hdr, full[2])                               // a record, then the carry list naming it: installed
	f.Add(kPut, hdr, full[2], kPut, hdr, full[2])                               // slot 2's record as slot 1: refused; a carry list ahead of its carrier: refused
	f.Add(kPut, retired, whole, kHas, retired[:8], []byte(nil))                 // a slot of a retired kind: refused
	f.Add(kPut, retired, []byte("a raw image"), kGet, []byte(nil), []byte(nil)) // the retired raw slot: refused
	f.Add(kPut, hdr[:5], full[1], kPut, hdr, full[2][:len(full[2])-3])          // truncated header, record truncated inside a block
	f.Add(kCommit, huge, []byte(nil), kIndex, huge, []byte(nil))                // counts no payload backs
	f.Add(kPut, hdr, corrupt, kPut, hdr, full[2])                               // a block failing its crc32c: refused, and so the carry list naming it
	f.Add(kGet, []byte(nil), []byte(nil), kGet, []byte(nil), []byte(nil))
	f.Add(kGC, []byte(nil), []byte(nil), kDrop, []byte(nil), []byte(nil))
	f.Add(kPut, hdr, kept, kPut, hdr, full[2]) // a cut-down record as a checkpoint: refused

	f.Fuzz(func(t *testing.T, k1 uint16, p1, d1 []byte, k2 uint16, p2, d2 []byte) {
		s, err := New(Config{Node: 1, Transport: vni.NewFastnet(0), Addr: addr(1), PeerAddr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n, fr := range []struct {
			kind    uint16
			payload []byte
			data    []byte
		}{{k1, p1, d1}, {k2, p2, d2}} {
			m := &wire.Msg{Type: wire.TControl, Kind: fr.kind, App: 1, Src: 0, Seq: uint64(n + 1), Payload: fr.payload}
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
			if e.kind != slotRecord && e.kind != slotRetained {
				t.Fatalf("slot %+v installed as kind %d", k, e.kind)
			}
			if e.kind != slotRecord {
				continue
			}
			for _, n := range e.rec.Names {
				if _, ok := s.images[key{k.app, k.rank, n}]; !ok {
					t.Fatalf("slot %+v installed without slot #%d it names", k, n)
				}
			}
		}
	})
}
