// Checkpoint-pipeline benchmarks. Every epoch of a long-running application
// pays the capture-and-replicate cost of its checkpoint; these benchmarks
// measure that cost per epoch for the whole-image path (the seed behavior:
// the full 8 MiB image crosses the wire every time) against the incremental
// pipeline (position-addressed records: only changed blocks and a carry list
// cross the wire), across heap mutation rates, plus the restore side: the
// newest pipeline epoch restored from a surviving RAM replica versus the disk
// full-image read. scripts/check.sh records the results in
// BENCH_checkpoint.json — together with internal/proc's mode=epoch, the C/R
// module's whole epoch over a real VM application — and enforces the >=5x
// replicated-bytes reduction at 10% mutation, the >=5x chain-restore-vs-disk
// bar and the in-place epoch's bars.
package starfish_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/svm"
)

const (
	ckptImageSize = 8 << 20 // the paper-scale checkpoint image
	ckptBlocks    = ckptImageSize / ckpt.DeltaBlockSize
)

// newEpochImage builds the epoch-0 state: random, so no two blocks dedup by
// accident.
func newEpochImage(rng *rand.Rand) []byte {
	img := make([]byte, ckptImageSize)
	rng.Read(img)
	return img
}

// mutateImage rewrites pct% of the image's blocks, whole-block and
// content-unique per (epoch, block) — the block-aligned write pattern of a
// paged heap, which is what incremental checkpointing exploits. (Scattering
// single-byte writes across the heap would touch every 4 KiB block and no
// delta scheme could help; that is the workload's property, not the
// pipeline's.) It returns the bytes it wrote as dirty spans, the hint a
// write-tracking application hands the pipeline.
func mutateImage(img []byte, pct int, epoch uint64, rng *rand.Rand) []svm.Span {
	n := ckptBlocks * pct / 100
	if n < 1 {
		n = 1
	}
	dirty := make([]svm.Span, n)
	for i := 0; i < n; i++ {
		b := rng.Intn(ckptBlocks)
		off := b * ckpt.DeltaBlockSize
		binary.BigEndian.PutUint64(img[off:], epoch<<24|uint64(b))
		binary.BigEndian.PutUint64(img[off+8:], rng.Uint64())
		dirty[i] = svm.Span{Off: off, Len: 16}
	}
	return dirty
}

// rankWriter writes one rank's epochs into be as its C/R module does for an
// application that tracks its writes: each a record of the blocks that
// changed since the image it stored last (ckpt.RecordOf, hinted), handed to
// PutRecord. The image stored becomes the next epoch's base, and the base
// before it comes back as the buffer to write the next image in: two buffers
// alternate, the one that comes back an epoch behind.
type rankWriter struct {
	be    ckpt.Backend
	base  []byte
	where []uint64
	n     uint64 // the next epoch's slot
}

// put stores img as the next epoch, dirty its writes since the last (nil:
// unknown), and returns the previous base (nil for the first epoch) and the
// record's length.
func (w *rankWriter) put(img []byte, dirty []svm.Span) (spare []byte, stored int, err error) {
	rec := ckpt.RecordOf(w.n, w.base, w.where, dirty, img)
	if err := w.be.PutRecord(1, 0, w.n, rec, nil); err != nil {
		return nil, 0, err
	}
	spare, w.base, w.where = w.base, img, ckpt.CarryList(rec, w.where)
	w.n++
	return spare, len(rec), nil
}

// BenchmarkCheckpoint measures one rank's per-epoch checkpoint cost into
// replicated memory (k=2, so every epoch crosses the wire to one peer):
//
//   - mode=full: the whole-image path — rstore.Put of the whole 8 MiB
//     image every epoch, whatever changed.
//   - mode=delta: the epochs of a rank whose application tracks its writes —
//     every epoch a record carrying only the blocks that changed and a carry
//     list naming the slots that carry the rest, collected every 8th epoch.
//     Each epoch is written as the C/R module writes it for a VM application
//     (rankWriter): one of two alternating buffers, diffed against the other
//     with the dirty spans of its writes, so an epoch compares only hinted
//     blocks and copies no image.
//   - restore=chain: a surviving replica restores the newest of eight
//     epochs written through the pipeline (the materialized cache: the
//     replica applies each record as it arrives, so the restore is a
//     lookup).
//   - restore=disk: the same image read back from the shared disk store —
//     the recovery path the paper measures, and the baseline the replica
//     restore is gated against.
//
// replicated_B/op counts the payload bytes actually pushed to the peer
// (headers and envelopes included); stored_B/op the bytes handed to the
// backend.
func BenchmarkCheckpoint(b *testing.B) {
	for _, pct := range []int{10} {
		b.Run(fmt.Sprintf("mode=full/mut=%d", pct), func(b *testing.B) {
			writer, _ := newRstorePair(b)
			rng := rand.New(rand.NewSource(1))
			img := newEpochImage(rng)
			if err := writer.Put(1, 0, 0, img, nil); err != nil {
				b.Fatal(err)
			}
			rep0 := writer.Stats().BytesReplicated
			b.SetBytes(ckptImageSize)
			b.ResetTimer()
			n := uint64(1)
			for i := 0; i < b.N; i++ {
				mutateImage(img, pct, n, rng)
				if err := writer.Put(1, 0, n, img, nil); err != nil {
					b.Fatal(err)
				}
				if n%8 == 0 {
					if err := writer.GC(1, 0, n); err != nil {
						b.Fatal(err)
					}
				}
				n++
			}
			b.StopTimer()
			rep := writer.Stats().BytesReplicated - rep0
			b.ReportMetric(float64(rep)/float64(b.N), "replicated_B/op")
			b.ReportMetric(float64(ckptImageSize), "stored_B/op")
		})
	}

	for _, pct := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("mode=delta/mut=%d", pct), func(b *testing.B) {
			writer, _ := newRstorePair(b)
			w := &rankWriter{be: writer}
			rng := rand.New(rand.NewSource(1))
			base := newEpochImage(rng)
			img, _, err := w.put(base, nil)
			if err != nil {
				b.Fatal(err)
			}
			img = append(img, base...)
			var stale []svm.Span
			rep0 := writer.Stats().BytesReplicated
			stored := 0
			b.SetBytes(ckptImageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := w.n
				for _, sp := range stale {
					copy(img[sp.Off:sp.Off+sp.Len], base[sp.Off:])
				}
				dirty := mutateImage(img, pct, n, rng)
				prev, size, err := w.put(img, dirty)
				if err != nil {
					b.Fatal(err)
				}
				base, img, stale, stored = img, prev, dirty, stored+size
				// GC every 8th epoch collects, on both nodes, every older
				// record but the ones the newest names, as the C/R module
				// does on a committed line.
				if n%8 == 0 {
					if err := writer.GC(1, 0, n); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			rep := writer.Stats().BytesReplicated - rep0
			b.ReportMetric(float64(rep)/float64(b.N), "replicated_B/op")
			b.ReportMetric(float64(stored)/float64(b.N), "stored_B/op")
		})
	}

	b.Run("restore=chain/size=8MB", func(b *testing.B) {
		writer, survivor := newRstorePair(b)
		p := ckpt.NewPipeline(writer, 0)
		rng := rand.New(rand.NewSource(1))
		img := newEpochImage(rng)
		var last uint64
		for n := uint64(0); n < 8; n++ {
			if n > 0 {
				mutateImage(img, 10, n, rng)
			}
			if err := p.Put(1, 0, n, img, nil); err != nil {
				b.Fatal(err)
			}
			last = n
		}
		if err := writer.CommitLine(1, ckpt.RecoveryLine{0: last}); err != nil {
			b.Fatal(err)
		}
		waitReplica(b, survivor, last)
		want := append([]byte(nil), img...)
		b.SetBytes(ckptImageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			line, err := survivor.CommittedLine(1)
			if err != nil {
				b.Fatal(err)
			}
			got, _, err := survivor.Get(1, 0, line[0])
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(want) {
				b.Fatalf("restored %d bytes, want %d", len(got), len(want))
			}
		}
		b.StopTimer()
		// The materialized restore must be byte-exact, not just fast.
		got, _, err := survivor.Get(1, 0, last)
		if err != nil {
			b.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				b.Fatalf("restored image differs at byte %d", i)
			}
		}
	})

	b.Run("restore=disk/size=8MB", func(b *testing.B) {
		store, err := ckpt.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		n := seedBackend(b, store, ckptImageSize)
		b.SetBytes(ckptImageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restoreOnce(b, store, n)
		}
	})
}

// BenchmarkEncodeImage measures svm.EncodeImage — the Snapshot of a VM
// application, paid by every checkpoint epoch — on an 8 MiB heap for the two
// extreme representations: 64-bit little-endian (the host's own) and 32-bit
// big-endian (narrowing and byte-swapping every word).
func BenchmarkEncodeImage(b *testing.B) {
	for _, c := range []struct {
		name string
		arch svm.Arch
	}{
		{"arch=le64", svm.Machines[5]},
		{"arch=be32", svm.Machines[1]},
	} {
		b.Run(c.name+"/size=8MB", func(b *testing.B) {
			m := svm.New(c.arch, svm.MustAssemble("halt"), 8)
			m.Grow(ckptImageSize / (c.arch.WordBits / 8))
			rng := rand.New(rand.NewSource(1))
			for i := range m.Mem {
				m.Mem[i] = int64(int32(rng.Uint32()))
			}
			b.SetBytes(int64(m.ImageSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if img := m.EncodeImage(); len(img) != m.ImageSize() {
					b.Fatalf("image of %d bytes, want %d", len(img), m.ImageSize())
				}
			}
		})
	}
}

// strideStore stores into one heap word per iteration, a stride apart, for
// as many iterations as global 0 says: global 1 is the address, 2 the stride,
// 3 the heap size.
const strideStore = `
loop:   loadg 0
        jz done
        loadg 1
        loadg 0
        storem          ; mem[addr] = remaining
        loadg 1
        loadg 2
        add
        loadg 3
        mod
        storeg 1        ; addr = (addr + stride) mod heap
        loadg 0
        push 1
        sub
        storeg 0        ; remaining--
        jmp loop
done:   halt
`

// BenchmarkEncodeDirty measures svm.EncodeDirty plus the ResetDirty behind
// it — the Snapshot of a VM application whose image is built in place — on
// the 8 MiB heap of BenchmarkEncodeImage, of which the program stored into
// mut% of the 4 KiB chunks since the last snapshot. The sweep is the evidence
// that a snapshot costs what changed: scripts/check.sh gates mut=10 against
// BenchmarkEncodeImage.
func BenchmarkEncodeDirty(b *testing.B) {
	arch := svm.Machines[5]
	const heapWords = ckptImageSize / 8
	const chunkWords = ckpt.DeltaBlockSize / 8
	for _, pct := range []int{1, 10, 50, 100} {
		b.Run(fmt.Sprintf("arch=le64/mut=%d", pct), func(b *testing.B) {
			m := svm.New(arch, svm.MustAssemble(strideStore), 4)
			m.Grow(heapWords)
			m.Globals[2], m.Globals[3] = chunkWords, heapWords
			m.TrackDirty()
			img := m.EncodeImage()
			chunks := heapWords / chunkWords * pct / 100
			b.SetBytes(int64(chunks * ckpt.DeltaBlockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Globals[0], m.PC, m.Halted = int64(chunks), 0, false
				if err := m.Run(1 << 30); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if !m.EncodeDirty(img) {
					b.Fatal("EncodeDirty refused a heap of unchanged layout")
				}
				m.ResetDirty()
			}
			b.StopTimer()
			if want := m.EncodeImage(); !bytes.Equal(img, want) {
				b.Fatal("the patched image is not the VM's image")
			}
		})
	}
}
