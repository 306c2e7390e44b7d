package ckpt

import (
	"bytes"
	"math/rand"
	"testing"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// FuzzRecordIntoReusedBuffer: RecordOf writes every byte of its record, so a
// record written into a recycled buffer full of garbage equals the one written
// into a fresh zeroed buffer — with no base and over one, for every image
// shape (all-zero blocks, a short tail block), growth and shrink, carry lists
// shorter and longer than the image, and sound and unsound hints. The record
// RecordOf takes from wire.Pool, after a garbage-filled buffer of its size was
// released there, is the same too, and every one is sized exactly.
func FuzzRecordIntoReusedBuffer(f *testing.F) {
	for shape := range uint8(13) {
		f.Add(int64(shape), shape, uint8(0), byte(0xDB))
		f.Add(int64(100+shape), shape, uint8(200), byte(0xFF))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, whereLen uint8, fill byte) {
		rng := rand.New(rand.NewSource(seed))
		shapes := imageShapes(rng)
		base := shapes[int(shape)%len(shapes)]
		next, dirty := mutate(rng, base)
		where := make([]uint64, int(whereLen)%(int(blocksOf(uint64(len(base))))+4))
		for i := range where {
			where[i] = uint64(rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			dirty = []svm.Span{{Off: rng.Intn(len(next) + 1), Len: rng.Intn(DeltaBlockSize)}} // unsound
		}
		n := uint64(1 + rng.Intn(100))
		fresh := func(size int) []byte { return make([]byte, size) }
		garbage := func(size int) []byte {
			b := make([]byte, size+rng.Intn(2*DeltaBlockSize))
			for i := range b {
				b[i] = fill ^ byte(i)
			}
			return b
		}
		for _, c := range []struct {
			base  []byte
			where []uint64
			dirty []svm.Span
		}{{nil, nil, nil}, {base, where, nil}, {base, where, dirty}} {
			parts := randomSplit(rng, next)
			want := recordInto(fresh, n, c.base, c.where, c.dirty, parts...)
			got := recordInto(garbage, n, c.base, c.where, c.dirty, parts...)
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("a %d-byte record over a %d-byte base differs in a reused buffer (cap %d)", len(want), len(c.base), cap(got))
			}
			used := wire.GetBuf(len(want))
			for i := range used {
				used[i] = fill
			}
			wire.PutBuf(used)
			pooled := RecordOf(n, c.base, c.where, c.dirty, parts...)
			if !bytes.Equal(pooled, want) || cap(pooled) != len(pooled) {
				t.Fatalf("a %d-byte record from wire.Pool differs from one written into zeroed memory (cap %d)", len(want), cap(pooled))
			}
			wire.PutBuf(pooled)
		}
	})
}
