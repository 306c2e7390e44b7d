package ckpt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// imageShapes are the images ImageRecordOf is checked on: all-zero blocks
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

// checkImageRecordOf checks that the record ImageRecordOf writes from parts is
// byte for byte the one encodeRecord writes from their concatenation with
// every block listed, and that it reads back: it decodes, verifies, resolves to
// the image, and aliases it when no block is all-zero. A store holds the
// record, so it may keep at most twice the bytes it has, and one that is
// mostly zero blocks must not keep the room of the zeros.
func checkImageRecordOf(t *testing.T, n uint64, parts [][]byte) {
	t.Helper()
	img := bytes.Join(parts, nil)
	nb := blocksOf(uint64(len(img)))
	every := make([]uint32, nb)
	for i := range every {
		every[i] = uint32(i)
	}
	want := encodeRecord(n, img, every, make([]uint64, nb))
	got := ImageRecordOf(n, parts...)
	if !bytes.Equal(got, want) {
		t.Fatalf("ImageRecordOf of a %d-byte image in %d parts differs from encodeRecord", len(img), len(parts))
	}
	if !bytes.Equal(bytes.Join(parts, nil), img) {
		t.Fatal("ImageRecordOf wrote into its parts")
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
	if cap(got) > 2*len(got) {
		t.Fatalf("a %d-byte record keeps %d bytes", len(got), cap(got))
	}
	if 2*len(rec.data) < len(img) && cap(got) > cap(slices.Clone(got)) {
		t.Fatalf("a record carrying %d of %d bytes keeps the room of its zero blocks", len(rec.data), len(img))
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

// TestImageRecordOfMatchesEncodeRecord: the whole-image writer is the record
// format's writer — the same bytes as encodeRecord listing every block — for
// every shape of image and every way of cutting it into parts.
func TestImageRecordOfMatchesEncodeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, img := range imageShapes(rng) {
		checkImageRecordOf(t, 7, [][]byte{img})
		checkImageRecordOf(t, 7, [][]byte{nil, img, nil})
		for range 20 {
			checkImageRecordOf(t, uint64(1+rng.Intn(100)), randomSplit(rng, img))
		}
	}
}

// FuzzImageRecordOf cuts an image into parts at the cut points the input
// names and checks the record as TestImageRecordOfMatchesEncodeRecord does.
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
		checkImageRecordOf(t, n, append(parts, img))
	})
}
