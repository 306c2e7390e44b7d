package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"starfish/internal/wire"
)

// metaEqual compares two Metas semantically (map iteration order and
// nil-vs-empty normalisation make byte comparison of encodings the wrong
// test for decoded values).
func metaEqual(a, b *Meta) bool {
	if a.Rank != b.Rank || a.Index != b.Index || len(a.Deps) != len(b.Deps) {
		return false
	}
	for i := range a.Deps {
		if a.Deps[i] != b.Deps[i] {
			return false
		}
	}
	countsEqual := func(x, y map[wire.Rank]uint64) bool {
		if len(x) != len(y) {
			return false
		}
		for r, n := range x {
			if y[r] != n {
				return false
			}
		}
		return true
	}
	return countsEqual(a.SentCounts, b.SentCounts) &&
		countsEqual(a.RecvCounts, b.RecvCounts) &&
		bytes.Equal(a.SentLog, b.SentLog)
}

// FuzzDecodeMeta exercises the checkpoint-metadata decoder with hostile
// input, mirroring wire.FuzzDecode: metadata is read back from a shared
// store (or a peer's RAM replica), so a corrupt or truncated blob must
// produce an error, never a panic or a huge allocation. Decoded metadata
// must survive a re-encode round trip.
func FuzzDecodeMeta(f *testing.F) {
	valid := (&Meta{
		Rank:  2,
		Index: 5,
		Deps: []Dep{
			{From: IntervalID{Rank: 0, Index: 3}, To: IntervalID{Rank: 2, Index: 4}},
		},
		SentCounts: map[wire.Rank]uint64{0: 10, 1: 7},
		RecvCounts: map[wire.Rank]uint64{1: 3},
		SentLog:    []byte("log"),
	}).Encode()
	f.Add(valid)
	f.Add((&Meta{Rank: 0, Index: 0}).Encode())

	// Truncations around every section boundary.
	f.Add([]byte{})
	f.Add(valid[:3])
	f.Add(valid[:12])           // rank+index intact, dep count missing
	f.Add(valid[:len(valid)-1]) // sent log cut short
	f.Add(valid[:len(valid)/2]) // mid-deps

	// Oversized dep count: claims millions of deps a short buffer cannot
	// hold; the decoder must fail, not allocate for the claim.
	hugeDeps := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hugeDeps[12:], 1<<30)
	f.Add(hugeDeps)

	// Oversized count-map and sent-log length fields.
	hugeLog := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hugeLog[len(hugeLog)-4-3:], 1<<31)
	f.Add(hugeLog)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeta(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode back to itself.
		m2, err := DecodeMeta(m.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded meta failed: %v", err)
		}
		if !metaEqual(m, m2) {
			t.Fatalf("round trip drifted:\n  first  %+v\n  second %+v", m, m2)
		}
	})
}

// TestQuickMetaRoundTrip is the property-test companion of FuzzDecodeMeta:
// any well-formed Meta survives Encode/DecodeMeta unchanged.
func TestQuickMetaRoundTrip(t *testing.T) {
	prop := func(rank uint16, index uint64, depWords []uint32,
		sent map[uint16]uint64, recv map[uint16]uint64, log []byte) bool {
		m := &Meta{Rank: wire.Rank(rank), Index: index, SentLog: log}
		if len(log) == 0 {
			m.SentLog = nil
		}
		for i := 0; i+3 < len(depWords); i += 4 {
			m.Deps = append(m.Deps, Dep{
				From: IntervalID{Rank: wire.Rank(depWords[i]), Index: uint64(depWords[i+1])},
				To:   IntervalID{Rank: wire.Rank(depWords[i+2]), Index: uint64(depWords[i+3])},
			})
		}
		for r, n := range sent {
			if m.SentCounts == nil {
				m.SentCounts = make(map[wire.Rank]uint64)
			}
			m.SentCounts[wire.Rank(r)] = n
		}
		for r, n := range recv {
			if m.RecvCounts == nil {
				m.RecvCounts = make(map[wire.Rank]uint64)
			}
			m.RecvCounts[wire.Rank(r)] = n
		}
		got, err := DecodeMeta(m.Encode())
		if err != nil {
			return false
		}
		return metaEqual(m, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeRecord exercises the record decoder with hostile input: records
// come back from peers and from disk, so a corrupt or truncated one must be an
// error, never a panic — a corrupt envelope is refused by its crc32c — and
// decoding must not allocate from a count the bytes do not back. What does decode must hold together: every block it lists is
// where BlockAt finds it, it verifies or fails with ErrMissingBlock, and a
// record cut down to some of its blocks still carries exactly those.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	img := make([]byte, DeltaBlockSize+200) // a block and a short tail
	rng.Read(img)
	next := bytes.Clone(img)
	clear(next[DeltaBlockSize:]) // the tail becomes a zero sentinel
	rec := newRecorder()
	p := NewPipeline(rec, 0)
	for n, im := range [][]byte{img, next, img} {
		if err := p.Put(1, 0, uint64(n+1), im, nil); err != nil {
			f.Fatal(err)
		}
	}
	whole := ImageRecord(1, img)
	if !bytes.Equal(whole, rec.slots[1]) {
		f.Fatal("a rank's first record is not the image's record")
	}
	// Record kind 2 — the retired delta record — must be refused.
	retired := bytes.Clone(whole)
	retired[8] = 2
	if _, err := DecodeRecord(sealEnvelope(retired, int(envelopeLen(retired)))); err == nil {
		f.Fatal("a record of retired kind 2 decodes")
	}
	f.Add(whole)                                 // a record carrying every block: its data is the image
	f.Add(retired)                               // a record of a retired kind
	f.Add(rec.slots[2])                          // a carry list with a zero sentinel
	f.Add(rec.slots[3])                          // a carry list naming the other two
	f.Add(rec.slots[1][:len(rec.slots[1])-1000]) // truncated inside a block
	f.Add(rec.slots[3][:headerLen+3])            // truncated inside the envelope
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRecordDecode(t, b)
		// The same bytes with the envelope's crc32c made to match, so that
		// what lies behind the check is explored too.
		if len(b) >= headerLen && envelopeLen(b) <= uint64(len(b)) {
			checkRecordDecode(t, sealEnvelope(bytes.Clone(b), int(envelopeLen(b))))
		}
	})
}

func checkRecordDecode(t *testing.T, b []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := DecodeRecord(b)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16+8*uint64(len(b)) {
		t.Fatalf("%d bytes of record made the decoder allocate %d", len(b), got)
	}
	if err != nil {
		return
	}
	if r.Kind != RecFull && r.Kind != RecKept {
		t.Fatalf("a record of kind %d decodes", r.Kind)
	}
	if whole, ok := r.Image(); ok && (len(whole) != r.RawLen || len(r.offs) != int(blocksOf(uint64(r.RawLen)))) {
		t.Fatalf("Image of a record listing %d of %d bytes' blocks", len(r.offs), r.RawLen)
	}
	if err := r.Verify(); err != nil && !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("Verify = %v, want nil or ErrMissingBlock", err)
	}
	var keep []uint32
	for k := range r.offs {
		i, zero := r.entry(k)
		blk, ok := r.BlockAt(i)
		if ok == zero || ok && !bytes.Equal(blk, r.block(k)) {
			t.Fatalf("BlockAt(%d) does not find listed block %d", i, k)
		}
		if k%3 == 0 {
			keep = append(keep, i)
		}
	}
	if cut := r.Keep(keep); cut != nil {
		kept, err := DecodeRecord(cut)
		if err != nil || kept.Kind != RecKept || kept.Slot != r.Slot {
			t.Fatalf("a record cut down does not decode: %v", err)
		}
		for _, i := range keep {
			want, ok := r.BlockAt(i)
			if got, kok := kept.BlockAt(i); ok != kok || !bytes.Equal(got, want) {
				t.Fatalf("the cut record lost block %d", i)
			}
		}
	}
}
