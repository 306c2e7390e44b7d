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
// record a PutRecord was handed. It has the methods a writer's PutRecord and
// Get use and no others.
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
		t.Fatalf("epoch %d: the records differ", epoch)
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

// hintedRank writes a rank's epochs as its C/R module does for an
// application that tracks its writes: each on top of the image it stored
// last, with the spans written since as the hint. The images are the
// caller's and are not written again.
type hintedRank struct {
	be    Backend
	base  []byte
	where []uint64
}

func (h *hintedRank) put(t *testing.T, n uint64, img []byte, dirty []svm.Span) []byte {
	t.Helper()
	rec := RecordOf(n, h.base, h.where, dirty, img)
	if err := h.be.PutRecord(1, 0, n, rec, nil); err != nil {
		t.Fatal(err)
	}
	h.base, h.where = img, CarryList(rec, h.where)
	return rec
}

// FuzzHintedPipeline: over random VM programs on every machine, a rank's
// epochs written with the VM's dirty spans as the hint are byte-for-byte the
// records written without one and the records Pipeline.Put writes — across
// epochs that grow and shrink the image — while comparing only hinted
// blocks. Every block a record does not carry is carried, as it is now, by
// the slot the record names.
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

		hinted, unhinted, plain := newRecorder(), newRecorder(), newRecorder()
		h, u, pp := &hintedRank{be: hinted}, &hintedRank{be: unhinted}, NewPipeline(plain, 0)
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
			rec := h.put(t, n, img, spans)
			u.put(t, n, img, nil)
			if err := pp.Put(1, 0, n, img, nil); err != nil {
				t.Fatal(err)
			}
			sameLastRecord(t, int(n), hinted, unhinted)
			sameLastRecord(t, int(n), hinted, plain)
			// A record carries only what changed; every other block it
			// names must be carried, as it is now, by the slot named.
			if rec, err := DecodeRecord(rec); err != nil {
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
			got, _, err := hinted.Get(1, 0, n)
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

// TestHintIsUsed: the writer does take the hint's word for it — an (unsound)
// empty hint yields a record that carries nothing — so the equalities
// FuzzHintedPipeline checks are properties of sound hints, not of a hint path
// that is never taken.
func TestHintIsUsed(t *testing.T) {
	imgs := epochImages(t, 2, 16)
	where := CarryList(RecordOf(1, nil, nil, nil, imgs[0]), nil)
	if r, err := DecodeRecord(RecordOf(2, imgs[0], where, []svm.Span{}, imgs[1])); err != nil {
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
// written with its dirty hints into a disk store: every epoch restores
// exactly, and each record after the first is a sliver of the image.
func TestHintedEpochsStayIncremental(t *testing.T) {
	m := svm.New(svm.Machines[0], svm.MustAssemble(memWriter), 2)
	m.Globals[1] = 2000 // iterations
	m.Grow(64 * 1024)   // 64K-word heap, mostly untouched
	m.TrackDirty()
	_, st := pipeStore(t)
	h := &hintedRank{be: st}
	for n := uint64(1); n <= 6; n++ {
		spans := m.DirtyByteSpans()
		if n == 1 {
			spans = nil
		}
		img := m.EncodeImage()
		m.ResetDirty()
		rec := h.put(t, n, img, spans)
		got, _, err := st.Get(1, 0, n)
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("epoch %d does not reconstruct (err %v)", n, err)
		}
		if n > 1 && len(rec) >= len(img)/4 {
			t.Errorf("epoch %d: stored %d bytes for a %d-byte image", n, len(rec), len(img))
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
