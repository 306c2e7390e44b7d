package starfish_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/svm"
)

// sweepBand rewrites pct% of the image's blocks as one contiguous band that
// starts where the last epoch's ended, wrapping: a heap swept front to back.
func sweepBand(img []byte, pct int, epoch uint64, next *int) []svm.Span {
	dirty := make([]svm.Span, ckptBlocks*pct/100)
	for i := range dirty {
		b := *next
		*next = (b + 1) % ckptBlocks
		off := b * ckpt.DeltaBlockSize
		binary.BigEndian.PutUint64(img[off:], epoch<<24|uint64(b))
		dirty[i] = svm.Span{Off: off, Len: 8}
	}
	return dirty
}

// TestCheckpointRetentionBounded bounds what whole-record GC keeps alive: a
// record stays while any one block of it is current, so a block nobody
// rewrites pins its record's every other block. One rank writes 200 hinted
// epochs of the 8 MiB image into a k=2 writer + holder pair, GC at every 8th,
// under two write patterns; the heap the two stores and the rank's two images
// hold at the end must stay within 1.25x of what the content-addressed format
// held (measured with this test on that code: 87.6 MB for random 10%
// whole-block mutation, 38.3 MB for a contiguous 10% band sweep — the holder
// there kept each 1 MiB block batch alive while any block in it was).
func TestCheckpointRetentionBounded(t *testing.T) {
	for _, c := range []struct {
		pattern string
		parent  float64 // MB
	}{{"random", 87.6}, {"sweep", 38.3}} {
		t.Run(c.pattern, func(t *testing.T) {
			writer, holder := newRstorePair(t)
			w := &rankWriter{be: writer}
			rng := rand.New(rand.NewSource(1))
			base := newEpochImage(rng)
			img := append([]byte(nil), base...)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, _, err := w.put(base, nil); err != nil {
				t.Fatal(err)
			}
			var stale []svm.Span
			next := 0
			for n := uint64(1); n <= 200; n++ {
				for _, sp := range stale {
					copy(img[sp.Off:sp.Off+sp.Len], base[sp.Off:])
				}
				var dirty []svm.Span
				if c.pattern == "random" {
					dirty = mutateImage(img, 10, n, rng)
				} else {
					dirty = sweepBand(img, 10, n, &next)
				}
				prev, _, err := w.put(img, dirty)
				if err != nil {
					t.Fatal(err)
				}
				base, img, stale = img, prev, dirty
				if n%8 == 0 {
					if err := writer.GC(1, 0, n); err != nil {
						t.Fatal(err)
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			grew := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
			t.Logf("%s: heap grew %.1f MB (content-addressed: %.1f MB); writer holds %d records, holder %d",
				c.pattern, grew, c.parent, writer.Stats().Images, holder.Stats().Images)
			if grew > 1.25*c.parent {
				t.Errorf("%s: heap grew %.1f MB, over 1.25x the content-addressed format's %.1f MB", c.pattern, grew, c.parent)
			}
			runtime.KeepAlive(base)
			runtime.KeepAlive(img)
			runtime.KeepAlive(w)
		})
	}
}
