package proc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// recBackend is an in-memory ckpt.Backend of one (app, rank) that keeps every
// record a PutRecord was handed and can be told to fail the next one.
type recBackend struct {
	ckpt.Backend
	recs     [][]byte
	slots    map[uint64][]byte
	failNext bool
}

var errPlanted = errors.New("planted store failure")

func newRecBackend() *recBackend { return &recBackend{slots: map[uint64][]byte{}} }

func (r *recBackend) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *ckpt.Meta) error {
	if r.failNext {
		r.failNext = false
		return errPlanted
	}
	r.recs = append(r.recs, rec)
	r.slots[n] = rec
	return nil
}

func (r *recBackend) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	img, err := ckpt.Resolve(r, app, rank, n)
	return img, &ckpt.Meta{Rank: rank, Index: n}, err
}

func (r *recBackend) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	rec, ok := r.slots[n]
	if !ok {
		return nil, ckpt.ErrNoCheckpoint
	}
	return rec, nil
}

// imageTap is the Pipeline with a copy taken of every image the C/R module
// hands it.
type imageTap struct {
	*ckpt.Pipeline
	imgs [][]byte
}

func (s *imageTap) PutHinted(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *ckpt.Meta, hintBase uint64, dirty []svm.Span) ([]byte, error) {
	s.imgs = append(s.imgs, append([]byte(nil), img...))
	return s.Pipeline.PutHinted(app, rank, n, img, meta, hintBase, dirty)
}

// assemblingVMApp is VMApp without LendSnapshot: every snapshot is a fresh
// EncodeImage and every image a fresh NewImage — the reference the in-place
// path is compared against. It keeps the dirty hints.
type assemblingVMApp struct{ a *VMApp }

func (r assemblingVMApp) Init(ctx *Ctx) error               { return r.a.Init(ctx) }
func (r assemblingVMApp) Restore(ctx *Ctx, st []byte) error { return r.a.Restore(ctx, st) }
func (r assemblingVMApp) Step(ctx *Ctx) (bool, error)       { return r.a.Step(ctx) }
func (r assemblingVMApp) Snapshot() ([]byte, error)         { return r.a.Snapshot() }
func (r assemblingVMApp) DirtySpans() []svm.Span            { return r.a.DirtySpans() }

// writer is one C/R module over a VM, a tapped pipeline and a recording
// backend, without the process around it.
type writer struct {
	vm   *svm.VM
	cr   *crModule
	tap  *imageTap
	back *recBackend
}

func newWriter(arch svm.Arch, src string, globals, heap int, inPlace bool) *writer {
	vm := svm.New(arch, svm.MustAssemble(src), globals)
	vm.Grow(heap)
	vm.TrackDirty()
	back := newRecBackend()
	tap := &imageTap{Pipeline: ckpt.NewPipeline(back, 0)}
	var app App = &VMApp{vm: vm}
	if !inPlace {
		app = assemblingVMApp{&VMApp{vm: vm}}
	}
	// A small odd-sized runtime segment, so the state sits at an odd offset.
	p := &Process{
		spec: AppSpec{ID: 9, Ranks: 1}, arch: arch, store: tap, app: app,
		encoder: &ckpt.PortableEncoder{VMHeaderSize: 3001},
	}
	p.cr = newCRModule(p)
	return &writer{vm: vm, cr: p.cr, tap: tap, back: back}
}

// epoch takes the cut and, unless the round is abandoned, captures it. It
// reports whether the image was built in place, and checks on the way that
// the snapshot left the buffer lent to the pipeline as it was.
func (w *writer) epoch(t *testing.T, idx uint64, pending, channel []mpi.RecordedMsg, abandon bool) (inPlace bool, err error) {
	t.Helper()
	lentBase := w.cr.base.img
	before := append([]byte(nil), lentBase...)
	c := &cut{pending: pending}
	if err := w.cr.snapshotApp(idx, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lentBase, before) {
		t.Fatalf("checkpoint %d: the snapshot edited the image lent to the pipeline as its base", idx)
	}
	if abandon {
		return false, nil
	}
	spare := c.into.img
	err = w.cr.capture(idx, "test", c, channel, &ckpt.Meta{})
	return spare != nil && sameBytes(w.cr.base.img, spare), err
}

// run executes at least n instructions and on to the next point where the
// stack is empty: between two statements of a heapChurn program, where the
// image has its resting layout.
func (w *writer) run(t *testing.T, n int) (halted bool) {
	t.Helper()
	for ; !halted && (n > 0 || len(w.vm.Stack) > 0); n-- {
		var err error
		if halted, err = w.vm.RunSteps(1); err != nil {
			t.Fatal(err)
		}
	}
	return halted
}

func sameLastRecord(t *testing.T, idx uint64, a, b *recBackend) {
	t.Helper()
	i := len(a.recs) - 1
	if len(b.recs)-1 != i {
		t.Fatalf("checkpoint %d: %d vs %d records", idx, len(a.recs), len(b.recs))
	}
	if !bytes.Equal(a.recs[i], b.recs[i]) {
		t.Fatalf("checkpoint %d: the in-place record differs from the assembled one", idx)
	}
}

// heapChurn is a random straight-line program of heap and global stores with
// net-zero stack traffic, so that cut anywhere between its statements the
// image keeps its layout; grow adds the occasional alloc and out.
func heapChurn(r *rand.Rand, heap, globals int, grow bool) string {
	var b strings.Builder
	for i := 0; i < 1500; i++ {
		switch k := r.Intn(1000); {
		case k < 700:
			addr := r.Intn(heap)
			for j := 0; j < 1+r.Intn(4) && addr+j < heap; j++ {
				fmt.Fprintf(&b, "push %d\npush %d\nstorem\n", addr+j, r.Int31())
			}
		case k < 850:
			fmt.Fprintf(&b, "push %d\nstoreg %d\n", r.Int31(), r.Intn(globals))
		case k < 996 || !grow:
			fmt.Fprintf(&b, "push %d\npush %d\nadd\npop\n", r.Int31(), r.Int31())
		case k < 999:
			n := 1 + r.Intn(3000)
			fmt.Fprintf(&b, "push %d\nalloc\npop\n", n)
			heap += n
		default:
			fmt.Fprintf(&b, "push %d\nout\n", r.Int31())
		}
	}
	b.WriteString("halt\n")
	return b.String()
}

// FuzzInPlaceCapture drives two C/R modules through the same epochs of the
// same random VM program on every machine: one builds its images in place in
// two alternating buffers, the other assembles each from a fresh EncodeImage
// and NewImage. After every epoch the image handed to the store and the
// record the store was handed must be byte-identical, whatever happened in
// between: an abandoned round, a store failure, a heap
// that grew, message lists that changed the image's length, a plain Put on
// the rank behind the module's back.
func FuzzInPlaceCapture(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		const globals = 4
		arch := svm.Machines[r.Intn(len(svm.Machines))]
		heap := 4000 + r.Intn(30000)
		src := heapChurn(r, heap, globals, true)
		in := newWriter(arch, src, globals, heap, true)
		ref := newWriter(arch, src, globals, heap, false)

		inPlace, idx := 0, uint64(0)
		for epoch := 1; epoch <= 48; epoch++ {
			steps := 1 + r.Intn(150)
			halted := in.run(t, steps)
			ref.run(t, steps)
			idx++
			var pending, channel []mpi.RecordedMsg
			abandon := false
			switch k := r.Intn(40); k {
			case 0:
				abandon = true
			case 1:
				in.back.failNext, ref.back.failNext = true, true
			case 2:
				pending = []mpi.RecordedMsg{{Src: 1, Tag: 3, Seq: uint64(epoch), Data: make([]byte, r.Intn(9000))}}
			case 3:
				channel = []mpi.RecordedMsg{{Src: 1, Tag: 4, Seq: uint64(epoch), Data: []byte("in flight")}}
			case 4:
				// Somebody else puts on the rank: the pipeline must take
				// its own copy and leave the borrowed base alone.
				foreign := make([]byte, 5000+r.Intn(5000))
				r.Read(foreign)
				base := append([]byte(nil), in.cr.base.img...)
				for _, w := range []*writer{in, ref} {
					if err := w.tap.Put(9, 0, idx, foreign, nil); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(in.cr.base.img, base) {
					t.Fatalf("checkpoint %d: a plain Put wrote into the borrowed base", idx)
				}
				sameLastRecord(t, idx, in.back, ref.back)
				idx++
			}
			was, errIn := in.epoch(t, idx, pending, channel, abandon)
			refInPlace, errRef := ref.epoch(t, idx, pending, channel, abandon)
			if refInPlace {
				t.Fatalf("checkpoint %d: the reference writer built an image in place", idx)
			}
			if (errIn == nil) != (errRef == nil) {
				t.Fatalf("checkpoint %d: store errors %v vs %v", idx, errIn, errRef)
			}
			if errIn != nil {
				if !errors.Is(errIn, errPlanted) {
					t.Fatal(errIn)
				}
				if in.cr.base.img != nil || in.cr.spare.img != nil {
					t.Fatalf("checkpoint %d: buffers kept across a store error", idx)
				}
				continue
			}
			if abandon {
				continue
			}
			if was {
				inPlace++
			}
			a, b := in.tap.imgs[len(in.tap.imgs)-1], ref.tap.imgs[len(ref.tap.imgs)-1]
			if !bytes.Equal(a, b) {
				t.Fatalf("checkpoint %d (in place: %v): image differs from the assembled one", idx, was)
			}
			sameLastRecord(t, idx, in.back, ref.back)
			if got, _, err := in.tap.Get(9, 0, idx); err != nil || !bytes.Equal(got, a) {
				t.Fatalf("checkpoint %d: the records do not reconstruct the image (err %v)", idx, err)
			}
			if halted {
				break
			}
		}
		if inPlace < 8 {
			t.Errorf("seed %d: %d epochs built in place; most should be", seed, inPlace)
		}
	})
}

// TestInPlaceCaptureFallbacks pins when an image is built in place and when
// it is assembled: in place from the third epoch on, and after anything that
// breaks the sequence of two consecutive stored images of one layout — an
// abandoned round, a store error, a heap that grew, message lists of another
// length — again two stored epochs later.
func TestInPlaceCaptureFallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const heap = 20000
	w := newWriter(svm.Machines[5], heapChurn(r, heap, 4, false), 4, heap, true)
	msg := []mpi.RecordedMsg{{Src: 1, Tag: 3, Seq: 1, Data: []byte("pending")}}
	steps := []struct {
		what    string
		abandon bool
		fail    bool
		grow    bool
		pending []mpi.RecordedMsg
		inPlace bool
	}{
		{what: "first"}, {what: "second"},
		{what: "third", inPlace: true}, {what: "fourth", inPlace: true},
		{what: "abandoned round", abandon: true},
		{what: "after abandoned"}, {what: "after abandoned + 1"},
		{what: "after abandoned + 2", inPlace: true},
		{what: "store error", fail: true},
		{what: "after error"}, {what: "after error + 1"},
		{what: "after error + 2", inPlace: true},
		{what: "heap grew", grow: true}, {what: "after growth"},
		{what: "after growth + 1", inPlace: true},
		{what: "longer lists", pending: msg},
		{what: "lists as long", pending: msg},
		{what: "lists as long + 1", pending: msg, inPlace: true},
		{what: "shorter lists"}, {what: "shorter lists + 1"},
		{what: "shorter lists + 2", inPlace: true},
	}
	for i, s := range steps {
		w.run(t, 40)
		if s.grow {
			w.vm.Grow(1000)
		}
		w.back.failNext = s.fail
		inPlace, err := w.epoch(t, uint64(i+1), s.pending, nil, s.abandon)
		if (err != nil) != s.fail {
			t.Fatalf("%s: err = %v", s.what, err)
		}
		if inPlace != s.inPlace {
			t.Errorf("%s: built in place = %v, want %v", s.what, inPlace, s.inPlace)
		}
		if s.abandon || s.fail {
			continue
		}
		img := w.tap.imgs[len(w.tap.imgs)-1]
		state, err := w.cr.p.encoder.Decode(img, w.cr.p.arch)
		if err != nil {
			t.Fatalf("%s: %v", s.what, err)
		}
		appState, pending, _, err := decodeCkptState(state)
		if err != nil || len(pending) != len(s.pending) {
			t.Fatalf("%s: state splits into %d pending messages, err %v", s.what, len(pending), err)
		}
		if !bytes.Equal(appState, w.vm.EncodeImage()) {
			t.Errorf("%s: the stored application state is not the VM's image", s.what)
		}
	}
}
