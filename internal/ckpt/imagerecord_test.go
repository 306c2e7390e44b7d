package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"starfish/internal/svm"
)

// refEncodeRecord is the reference encoder RecordOf is held to: it writes the
// record of slot n of img that lists the changed blocks (ascending) and the
// carry list where, patched with them, in two plain passes.
func refEncodeRecord(n uint64, img []byte, changed []uint32, where []uint64) []byte {
	zero := make([]bool, len(changed))
	dataLen := 0
	for k, i := range changed {
		lo := int(i) * DeltaBlockSize
		if zero[k] = isZero(img[lo : lo+blockLen(len(img), i)]); !zero[k] {
			dataLen += blockLen(len(img), i)
		}
	}
	env := headerLen + 8*len(changed) + 8*len(where)
	buf := make([]byte, env+dataLen)
	h := buf[:8] // magic and crc: sealEnvelope
	h = append(h, RecFull)
	h = binary.BigEndian.AppendUint64(h, n)
	h = binary.BigEndian.AppendUint64(h, uint64(len(img)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(changed)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(where)))
	data := buf[env:]
	for k, i := range changed {
		lo := int(i) * DeltaBlockSize
		var crc uint32
		if zero[k] {
			i |= zeroBit
		} else {
			b := data[:copy(data, img[lo:lo+blockLen(len(img), i)])]
			crc, data = crc32.Checksum(b, castagnoli), data[len(b):]
		}
		h = binary.BigEndian.AppendUint32(h, i)
		h = binary.BigEndian.AppendUint32(h, crc)
	}
	for i, k := 0, 0; i < len(where); i++ {
		s := where[i]
		if k < len(changed) && changed[k] == uint32(i) {
			if s = n; zero[k] {
				s = zeroSlot
			}
			k++
		}
		h = binary.BigEndian.AppendUint64(h, s)
	}
	return sealEnvelope(buf, env)
}

// refDiffBlocks is the reference diff: the indices of the blocks of next
// that differ from base, ComputeDelta's block rule; a nil base makes every
// block differ. With a non-nil hinted, a block it does not mark is taken as
// unchanged without looking, provided base has a block of the same length
// there.
func refDiffBlocks(base, next []byte, hinted []bool) []uint32 {
	var changed []uint32
	for i, lo := 0, 0; lo < len(next); i, lo = i+1, lo+DeltaBlockSize {
		nb := next[lo:min(lo+DeltaBlockSize, len(next))]
		if lo < len(base) {
			ob := base[lo:min(lo+DeltaBlockSize, len(base))]
			if len(ob) == len(nb) && (hinted != nil && !hinted[i] || bytes.Equal(ob, nb)) {
				continue
			}
		}
		changed = append(changed, uint32(i))
	}
	return changed
}

// refRecord is the reference for RecordOf(n, base, where, dirty, img): the
// record of img's blocks that differ from base, where resized to img.
func refRecord(n uint64, base []byte, where []uint64, dirty []svm.Span, img []byte) []byte {
	var hinted []bool
	if base != nil && dirty != nil {
		hinted = spanBlocks(dirty, len(img))
	}
	nb := int(blocksOf(uint64(len(img))))
	where = append(make([]uint64, 0, nb), where[:min(len(where), nb)]...)[:nb]
	return refEncodeRecord(n, img, refDiffBlocks(base, img, hinted), where)
}

// imageShapes are the images RecordOf is checked on: all-zero blocks
// first, in the middle and last, a short last block, an empty image, an exact
// multiple of the block size, an image whose blocks are 30% zeros, and an
// image that is all zeros.
func imageShapes(rng *rand.Rand) [][]byte {
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	zeroAt := func(img []byte, blocks ...int) []byte {
		for _, i := range blocks {
			clear(img[i*DeltaBlockSize : min((i+1)*DeltaBlockSize, len(img))])
		}
		return img
	}
	const bs = DeltaBlockSize
	return [][]byte{
		nil,
		random(1),
		random(bs - 1),
		random(bs),
		random(4 * bs),
		random(4*bs + 123),
		zeroAt(random(5*bs+7), 0),
		zeroAt(random(5*bs+7), 2),
		zeroAt(random(5*bs+7), 5),
		zeroAt(random(5*bs), 4),
		zeroAt(random(6*bs+9), 0, 1, 3, 6),
		zeroAt(random(10*bs), 1, 4, 8),
		make([]byte, 3*bs+5),
	}
}

// randomSplit cuts img into parts at random points, empty parts included.
func randomSplit(rng *rand.Rand, img []byte) [][]byte {
	var parts [][]byte
	for len(img) > 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			parts = append(parts, nil)
			continue
		}
		n := rng.Intn(min(len(img), 3*DeltaBlockSize) + 1)
		parts, img = append(parts, img[:n]), img[n:]
	}
	return parts
}

// checkImageRecordOf checks that the record RecordOf writes with no base from
// parts is byte for byte the one the reference encoder writes from their
// concatenation with every block listed, and that it reads back: it decodes,
// verifies, resolves to the image, and aliases it when no block is all-zero.
// A store holds the record, so it is sized exactly: it keeps no room for the
// zero blocks it does not carry.
func checkImageRecordOf(t *testing.T, n uint64, parts [][]byte) {
	t.Helper()
	img := bytes.Join(parts, nil)
	want := refRecord(n, nil, nil, nil, img)
	got := RecordOf(n, nil, nil, nil, parts...)
	if !bytes.Equal(got, want) {
		t.Fatalf("the record of a %d-byte image in %d parts differs from the reference", len(img), len(parts))
	}
	if !bytes.Equal(bytes.Join(parts, nil), img) {
		t.Fatal("RecordOf wrote into its parts")
	}
	rec, err := DecodeRecord(got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	be := newMemBackend()
	if err := be.PutRecord(1, 0, n, got, nil); err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(be, 1, 0, n)
	if err != nil || !bytes.Equal(res, img) {
		t.Fatalf("resolve: %v (equal %v)", err, bytes.Equal(res, img))
	}
	if cap(got) != len(got) {
		t.Fatalf("a %d-byte record keeps %d bytes", len(got), cap(got))
	}
	hasZero := false
	for k := range rec.offs {
		if _, zero := rec.entry(k); zero {
			hasZero = true
		}
	}
	whole, ok := rec.Image()
	if ok == hasZero {
		t.Fatalf("Image() ok = %v for a record with an all-zero block: %v", ok, hasZero)
	}
	if ok && len(img) > 0 && &whole[0] != &got[len(got)-len(img)] {
		t.Fatal("Image() does not alias the record's bytes")
	}
}

// checkDeltaRecord checks that the record RecordOf writes from parts on top of
// base — the image of slot n-1, whose carry list is where — is byte for byte
// the reference's, with the sound hint dirty and with none, and that stored
// over base's record it resolves to the image.
func checkDeltaRecord(t *testing.T, n uint64, base []byte, dirty []svm.Span, parts [][]byte) {
	t.Helper()
	img := bytes.Join(parts, nil)
	be := newMemBackend()
	baseRec := RecordOf(n-1, nil, nil, nil, base)
	where := CarryList(baseRec, nil)
	want := refRecord(n, base, where, nil, img)
	for _, hint := range [][]svm.Span{nil, dirty} {
		if got := RecordOf(n, base, where, hint, parts...); !bytes.Equal(got, want) {
			t.Fatalf("the record of a %d-byte image in %d parts over a %d-byte base (hint %v) differs from the reference",
				len(img), len(parts), len(base), hint != nil)
		}
	}
	if got := refRecord(n, base, where, dirty, img); !bytes.Equal(got, want) {
		t.Fatal("the hint is unsound: the reference differs under it")
	}
	if !bytes.Equal(bytes.Join(parts, nil), img) {
		t.Fatal("RecordOf wrote into its parts")
	}
	for s, rec := range map[uint64][]byte{n - 1: baseRec, n: want} {
		if err := be.PutRecord(1, 0, s, rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := Resolve(be, 1, 0, n); err != nil || !bytes.Equal(res, img) {
		t.Fatalf("resolve: %v (equal %v)", err, bytes.Equal(res, img))
	}
}

// mutate returns a copy of img with a few random blocks rewritten, one
// cleared, and its length changed now and then, and the spans it wrote.
func mutate(rng *rand.Rand, img []byte) ([]byte, []svm.Span) {
	next := bytes.Clone(img)
	var dirty []svm.Span
	switch rng.Intn(4) {
	case 0:
		grow := 1 + rng.Intn(2*DeltaBlockSize)
		dirty = append(dirty, svm.Span{Off: len(next), Len: grow})
		next = append(next, make([]byte, grow)...)
		rng.Read(next[len(next)-grow:])
	case 1:
		next = next[:rng.Intn(len(next)+1)]
	}
	for range rng.Intn(4) {
		if len(next) == 0 {
			break
		}
		off := rng.Intn(len(next))
		sp := svm.Span{Off: off, Len: min(1+rng.Intn(300), len(next)-off)}
		rng.Read(next[sp.Off : sp.Off+sp.Len])
		dirty = append(dirty, sp)
	}
	if len(next) > 0 && rng.Intn(2) == 0 {
		lo := rng.Intn(len(next)) / DeltaBlockSize * DeltaBlockSize
		sp := svm.Span{Off: lo, Len: min(DeltaBlockSize, len(next)-lo)}
		clear(next[sp.Off : sp.Off+sp.Len])
		dirty = append(dirty, sp)
	}
	return next, dirty
}

// TestRecordOfMatchesReference: RecordOf writes the reference encoder's bytes
// for every shape of image and every way of cutting it into parts — with no
// base, listing every block; on top of a base, listing the blocks that
// differ from it, with a sound hint and without.
func TestRecordOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, img := range imageShapes(rng) {
		checkImageRecordOf(t, 7, [][]byte{img})
		checkImageRecordOf(t, 7, [][]byte{nil, img, nil})
		for range 20 {
			checkImageRecordOf(t, uint64(1+rng.Intn(100)), randomSplit(rng, img))
		}
		for range 20 {
			next, dirty := mutate(rng, img)
			checkDeltaRecord(t, uint64(2+rng.Intn(100)), img, dirty, randomSplit(rng, next))
		}
		checkDeltaRecord(t, 7, img, []svm.Span{}, [][]byte{img})
	}
}

// FuzzImageRecordOf cuts an image into parts at the cut points the input
// names and checks the record as TestRecordOfMatchesReference does: with no
// base, and on top of the image with its first half of each block flipped.
// Input: a u64 slot, a u8 count of cut points, u16 cut points, then the image.
func FuzzImageRecordOf(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	for _, img := range imageShapes(rng) {
		for _, cuts := range [][]uint16{nil, {0}, {DeltaBlockSize}, {100, 100, 5000}} {
			seed := binary.BigEndian.AppendUint64(nil, 3)
			seed = append(seed, byte(len(cuts)))
			for _, c := range cuts {
				seed = binary.BigEndian.AppendUint16(seed, c)
			}
			f.Add(append(seed, img...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 9 {
			return
		}
		n, ncuts := binary.BigEndian.Uint64(b), int(b[8])
		b = b[9:]
		if n == zeroSlot || len(b) < 2*ncuts {
			return
		}
		cuts, img := b[:2*ncuts], b[2*ncuts:]
		var parts [][]byte
		for ; len(cuts) > 0; cuts = cuts[2:] {
			c := min(int(binary.BigEndian.Uint16(cuts)), len(img))
			parts, img = append(parts, img[:c]), img[c:]
		}
		parts = append(parts, img)
		checkImageRecordOf(t, n, parts)
		if n == 0 {
			return
		}
		whole := bytes.Join(parts, nil)
		base := bytes.Clone(whole)
		var dirty []svm.Span
		for lo := 0; lo < len(base); lo += 2 * DeltaBlockSize {
			sp := svm.Span{Off: lo, Len: min(DeltaBlockSize/2, len(base)-lo)}
			for i := sp.Off; i < sp.Off+sp.Len; i++ {
				base[i] ^= 0x5A
			}
			dirty = append(dirty, sp)
		}
		checkDeltaRecord(t, n, base, dirty, parts)
	})
}
