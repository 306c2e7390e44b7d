package ckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// recorder is an in-memory Backend of one (app, rank) that keeps every
// record a PutRecord was handed. It has the methods a Pipeline's Put and Get
// use and no others.
type recorder struct {
	Backend
	recs  [][]byte
	slots map[uint64][]byte
}

func newRecorder() *recorder { return &recorder{slots: map[uint64][]byte{}} }

func (r *recorder) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error {
	r.recs = append(r.recs, rec)
	r.slots[n] = rec
	return nil
}

func (r *recorder) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error) {
	img, err := Resolve(r, app, rank, n)
	return img, &Meta{Rank: rank, Index: n}, err
}

func (r *recorder) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	rec, ok := r.slots[n]
	if !ok {
		return nil, ErrNoCheckpoint
	}
	return rec, nil
}

// sameLastRecord fails unless the newest records of a and b are byte-identical.
func sameLastRecord(t *testing.T, epoch int, a, b *recorder) {
	t.Helper()
	i := len(a.recs) - 1
	if len(b.recs)-1 != i {
		t.Fatalf("epoch %d: %d vs %d records", epoch, len(a.recs), len(b.recs))
	}
	if !bytes.Equal(a.recs[i], b.recs[i]) {
		t.Fatalf("epoch %d: hinted record differs from the unhinted one", epoch)
	}
}

// randomWriter generates a straight-line VM program that stores to the heap
// and the globals, grows the heap and the output stream, and pushes and pops
// the stack — so that, cut into epochs at arbitrary instructions, its images
// change a few blocks, grow, and shrink.
func randomWriter(r *rand.Rand, heap, globals int) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < 400; i++ {
		switch k := r.Intn(20); {
		case k < 10:
			// Clustered or scattered heap stores.
			addr := r.Intn(heap)
			for j := 0; j < 1+r.Intn(4) && addr+j < heap; j++ {
				fmt.Fprintf(&b, "push %d\npush %d\nstorem\n", addr+j, r.Int31())
			}
		case k < 12:
			fmt.Fprintf(&b, "push %d\nstoreg %d\n", r.Int31(), r.Intn(globals))
		case k == 12:
			n := 1 + r.Intn(3000)
			fmt.Fprintf(&b, "push %d\nalloc\npop\n", n)
			heap += n
		case k == 13:
			fmt.Fprintf(&b, "push %d\nout\n", r.Int31())
		case k < 17:
			for j := 0; j < 1+r.Intn(600); j++ {
				fmt.Fprintf(&b, "push %d\n", r.Int31())
				depth++
			}
		default:
			for j := r.Intn(depth + 1); j > 0; j-- {
				b.WriteString("pop\n")
				depth--
			}
		}
	}
	b.WriteString("halt\n")
	return b.String()
}

// FuzzHintedPipeline: over random VM programs on every machine, a Put that
// carries the VM's dirty spans emits byte-for-byte the records an unhinted
// Put emits — across epochs that grow and shrink the image —
// while comparing only hinted blocks; a hint tagged with any other base than
// the previous epoch is ignored, however wrong its spans.
func FuzzHintedPipeline(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		const globals = 4
		heap := 2000 + r.Intn(30000)
		m := svm.New(svm.Machines[r.Intn(len(svm.Machines))], svm.MustAssemble(randomWriter(r, heap, globals)), globals)
		m.Grow(heap)
		m.TrackDirty()

		hinted, plain, stale := newRecorder(), newRecorder(), newRecorder()
		ph, pp, ps := NewPipeline(hinted, 0), NewPipeline(plain, 0), NewPipeline(stale, 0)
		// The VM image sits at an odd offset inside the stored image, as the
		// application state does behind a checkpoint header.
		prefix := make([]byte, 1+r.Intn(2*DeltaBlockSize))
		r.Read(prefix)
		sizes := map[int]bool{}
		for n := uint64(1); n <= 40; n++ {
			spans := m.DirtyByteSpans()
			img := append(append([]byte(nil), prefix...), m.EncodeImage()...)
			m.ResetDirty()
			sizes[len(img)] = true
			for i := range spans {
				spans[i].Off += len(prefix)
			}
			var noSpans []svm.Span
			if n == 1 {
				spans = nil // nothing to be relative to
			} else {
				noSpans = []svm.Span{}
			}
			if _, err := ph.PutHinted(1, 0, n, img, nil, n-1, spans); err != nil {
				t.Fatal(err)
			}
			if err := pp.Put(1, 0, n, img, nil); err != nil {
				t.Fatal(err)
			}
			// "Nothing changed" is as wrong as a hint gets; under a base
			// that is not the previous epoch it must not be believed.
			if _, err := ps.PutHinted(1, 0, n, img, nil, n+uint64(r.Intn(3)), noSpans); err != nil {
				t.Fatal(err)
			}
			sameLastRecord(t, int(n), hinted, plain)
			sameLastRecord(t, int(n), stale, plain)
			// A record carries only what changed; every other block it
			// names must be carried, as it is now, by the slot named.
			if rec, err := DecodeRecord(hinted.recs[len(hinted.recs)-1]); err != nil {
				t.Fatal(err)
			} else {
				for i, b := range SplitBlocks(img) {
					s := rec.carrier(i)
					if s == zeroSlot {
						if !isZero(b) {
							t.Fatalf("epoch %d: record names block %d zero", n, i)
						}
						continue
					}
					src, err := DecodeRecord(hinted.slots[s])
					if err != nil {
						t.Fatal(err)
					}
					if got, ok := src.BlockAt(uint32(i)); !ok || !bytes.Equal(got, b) {
						t.Fatalf("epoch %d: record names slot %d for block %d, which does not carry it", n, s, i)
					}
				}
			}
			got, _, err := ph.Get(1, 0, n)
			if err != nil || !bytes.Equal(got, img) {
				t.Fatalf("epoch %d: hinted records do not reconstruct the image (err %v)", n, err)
			}
			if halted, err := m.RunSteps(1 + r.Intn(120)); err != nil {
				t.Fatal(err)
			} else if halted {
				break
			}
		}
		if len(sizes) < 2 {
			t.Errorf("seed %d: every epoch had the same image size; the program should grow and shrink it", seed)
		}
	})
}

// TestHintIsUsed: with the right base the pipeline does take the hint's word
// for it — an (unsound) empty hint yields an empty delta — so the equalities
// FuzzHintedPipeline checks are properties of sound hints, not of a hint path
// that is never taken.
func TestHintIsUsed(t *testing.T) {
	rec := newRecorder()
	p := NewPipeline(rec, 0)
	imgs := epochImages(t, 2, 16)
	if err := p.Put(1, 0, 1, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PutHinted(1, 0, 2, imgs[1], nil, 1, []svm.Span{}); err != nil {
		t.Fatal(err)
	}
	if r, err := DecodeRecord(rec.recs[1]); err != nil {
		t.Fatal(err)
	} else if len(r.list) != 0 {
		t.Fatalf("a record under an empty hint lists %d blocks, want 0", len(r.list)/8)
	}
}

// memWriter walks the heap writing one word per iteration — the incremental
// checkpointing workload: a little state changes per epoch, most does not.
const memWriter = `
loop:   loadg 1       ; remaining
        jz done
        loadg 0       ; addr
        loadg 1
        storem        ; mem[addr] = remaining
        loadg 0
        push 1
        add
        storeg 0      ; addr++
        loadg 1
        push 1
        sub
        storeg 1      ; remaining--
        jmp loop
done:   halt
`

// TestHintedEpochsStayIncremental runs a VM across several checkpoint epochs
// through the hinted pipeline path: every epoch restores exactly, and each
// record is a sliver of the image.
func TestHintedEpochsStayIncremental(t *testing.T) {
	m := svm.New(svm.Machines[0], svm.MustAssemble(memWriter), 2)
	m.Globals[1] = 2000 // iterations
	m.Grow(64 * 1024)   // 64K-word heap, mostly untouched
	m.TrackDirty()
	p, _ := pipeStore(t)
	for n := uint64(1); n <= 6; n++ {
		spans := m.DirtyByteSpans()
		if n == 1 {
			spans = nil
		}
		img := m.EncodeImage()
		m.ResetDirty()
		before := p.Stats().StoredBytes
		if _, err := p.PutHinted(1, 0, n, img, nil, n-1, spans); err != nil {
			t.Fatal(err)
		}
		got, _, err := p.Get(1, 0, n)
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("epoch %d does not reconstruct (err %v)", n, err)
		}
		if stored := int(p.Stats().StoredBytes - before); n > 1 && stored >= len(img)/4 {
			t.Errorf("epoch %d: stored %d bytes for a %d-byte image", n, stored, len(img))
		}
		halted, err := m.RunSteps(1500)
		if err != nil {
			t.Fatal(err)
		}
		if halted {
			break
		}
	}
}

// failOnce is a recorder whose next PutRecord fails.
type failOnce struct {
	*recorder
	fail bool
}

func (f *failOnce) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error {
	if f.fail {
		f.fail = false
		return ErrNoCheckpoint
	}
	return f.recorder.PutRecord(app, rank, n, rec, meta)
}

// TestPutHintedBorrows pins the ownership contract: PutHinted keeps the image
// it is handed by reference and hands back the one it held — the very memory,
// not a copy — while Put copies in and never writes a borrowed base.
func TestPutHintedBorrows(t *testing.T) {
	be := &failOnce{recorder: newRecorder()}
	p := NewPipeline(be, 0)
	imgs := epochImages(t, 5, 16)
	same := func(a, b []byte) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }

	if prev, err := p.PutHinted(1, 0, 1, imgs[0], nil, 0, nil); err != nil || prev != nil {
		t.Fatalf("first put returned %d bytes, err %v; want nothing to hand back", len(prev), err)
	}
	if prev, err := p.PutHinted(1, 0, 2, imgs[1], nil, 1, nil); err != nil || !same(prev, imgs[0]) {
		t.Fatalf("second put did not hand the first image back (err %v)", err)
	}
	// A put that fails keeps nothing and changes nothing.
	be.fail = true
	if prev, err := p.PutHinted(1, 0, 3, imgs[2], nil, 2, nil); err == nil || prev != nil {
		t.Fatalf("failed put returned %d bytes, err %v; want nil and an error", len(prev), err)
	}
	if prev, err := p.PutHinted(1, 0, 3, imgs[2], nil, 2, nil); err != nil || !same(prev, imgs[1]) {
		t.Fatalf("a failed put changed the base (err %v)", err)
	}

	// A plain Put on the rank copies in and leaves the borrowed base alone.
	borrowed := append([]byte(nil), imgs[2]...)
	if err := p.Put(1, 0, 4, imgs[3], nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgs[2], borrowed) {
		t.Fatal("Put wrote into the borrowed base")
	}
	prev, err := p.PutHinted(1, 0, 5, imgs[4], nil, 4, nil)
	if err != nil || same(prev, imgs[2]) || same(prev, imgs[3]) || !bytes.Equal(prev, imgs[3]) {
		t.Fatalf("after a Put the base should be the pipeline's own copy of it (err %v)", err)
	}
	for n := uint64(1); n <= 5; n++ {
		if got, _, err := p.Get(1, 0, n); err != nil || !bytes.Equal(got, imgs[n-1]) {
			t.Fatalf("checkpoint %d does not reconstruct (err %v)", n, err)
		}
	}
}
