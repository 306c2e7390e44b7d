package proc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
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

// assemblingVMApp is VMApp without LendSnapshot: every snapshot is a fresh
// EncodeImage and every image a fresh NewImage — the reference the in-place
// path is compared against. It keeps the dirty hints.
type assemblingVMApp struct{ a *VMApp }

func (r assemblingVMApp) Init(ctx *Ctx) error               { return r.a.Init(ctx) }
func (r assemblingVMApp) Restore(ctx *Ctx, st []byte) error { return r.a.Restore(ctx, st) }
func (r assemblingVMApp) Step(ctx *Ctx) (bool, error)       { return r.a.Step(ctx) }
func (r assemblingVMApp) Snapshot() ([]byte, error)         { return r.a.Snapshot() }
func (r assemblingVMApp) DirtySpans() []svm.Span            { return r.a.DirtySpans() }

// wholeVMApp is VMApp without its write tracking: the C/R module stores its
// every epoch as a whole image, the reference images are read from.
type wholeVMApp struct{ a *VMApp }

func (r wholeVMApp) Init(ctx *Ctx) error               { return r.a.Init(ctx) }
func (r wholeVMApp) Restore(ctx *Ctx, st []byte) error { return r.a.Restore(ctx, st) }
func (r wholeVMApp) Step(ctx *Ctx) (bool, error)       { return r.a.Step(ctx) }
func (r wholeVMApp) Snapshot() ([]byte, error)         { return r.a.Snapshot() }

// How a writer's application captures.
const (
	inPlace    = iota // VMApp: delta records, images built in place
	assembling        // delta records, every image assembled fresh
	whole             // whole-image records
)

// writer is one C/R module over a VM and a recording backend, without the
// process around it.
type writer struct {
	vm   *svm.VM
	cr   *crModule
	back *recBackend
	mode int
}

func newWriter(arch svm.Arch, src string, globals, heap int, mode int) *writer {
	vm := svm.New(arch, svm.MustAssemble(src), globals)
	vm.Grow(heap)
	vm.TrackDirty()
	back := newRecBackend()
	app := map[int]App{
		inPlace:    &VMApp{vm: vm},
		assembling: assemblingVMApp{&VMApp{vm: vm}},
		whole:      wholeVMApp{&VMApp{vm: vm}},
	}[mode]
	// A small odd-sized runtime segment, so the state sits at an odd offset.
	p := &Process{
		spec: AppSpec{ID: 9, Ranks: 1}, arch: arch, store: back, app: app,
		encoder: &ckpt.PortableEncoder{VMHeaderSize: 3001},
	}
	p.cr = newCRModule(p)
	return &writer{vm: vm, cr: p.cr, back: back, mode: mode}
}

// epoch takes the cut and, unless the round is abandoned, captures it. It
// reports whether the image was built in place, and checks on the way that
// the snapshot left the base it was lent as it was, and that a stored epoch
// swaps the two buffers: the image just stored is the base, and the base
// before it is the spare the next epoch is built in.
func (w *writer) epoch(t *testing.T, idx uint64, pending, channel []mpi.RecordedMsg, abandon bool) (inPlace bool, err error) {
	t.Helper()
	lentBase := w.cr.base.img
	before := append([]byte(nil), lentBase...)
	c := &cut{pending: pending}
	if err := w.cr.snapshotApp(idx, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lentBase, before) {
		t.Fatalf("checkpoint %d: the snapshot edited the image lent to it as its base", idx)
	}
	if abandon {
		return false, nil
	}
	spare := c.into.img
	if err = storeEpoch(w.cr, idx, "test", c, channel, &ckpt.Meta{}); err != nil {
		return false, err
	}
	switch {
	case w.mode == whole && (w.cr.base.img != nil || w.cr.spare.img != nil):
		t.Fatalf("checkpoint %d: an application that tracks no writes keeps images", idx)
	case w.mode != whole && w.cr.base.img == nil:
		t.Fatalf("checkpoint %d: no base kept", idx)
	case lentBase != nil && !sameBytes(w.cr.spare.img, lentBase):
		t.Fatalf("checkpoint %d: the base before the epoch is not the spare after it", idx)
	}
	return spare != nil && sameBytes(w.cr.base.img, spare), nil
}

// storeEpoch hands the epoch to the capture worker and waits for it to be
// stored, as a rank taking its next cut at once does.
func storeEpoch(cr *crModule, idx uint64, protocol string, c *cut, channel []mpi.RecordedMsg, meta *ckpt.Meta) error {
	cr.handOff(epoch{idx: idx, protocol: protocol, c: c, channel: channel, meta: meta})
	return cr.wait()
}

// image returns the image checkpoint idx resolves to.
func (w *writer) image(t *testing.T, idx uint64) []byte {
	t.Helper()
	img, _, err := w.back.Get(9, 0, idx)
	if err != nil {
		t.Fatalf("checkpoint %d does not resolve: %v", idx, err)
	}
	return img
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

// FuzzInPlaceCapture drives three C/R modules through the same epochs of the
// same random VM program on every machine: one builds its images in place in
// two alternating buffers, one assembles each from a fresh EncodeImage and
// NewImage, and one, whose application tracks no writes, stores whole
// images. After every epoch the first two must have handed the store
// byte-identical records, resolving to the third's image, whatever happened
// in between: an abandoned round, run again under its index (the dirty hint
// is then relative to a snapshot never stored, and must not be believed), a store failure, a heap
// that grew, message lists that changed the image's length, a record stored
// for the rank behind the module's back.
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
		in := newWriter(arch, src, globals, heap, inPlace)
		ref := newWriter(arch, src, globals, heap, assembling)
		plain := newWriter(arch, src, globals, heap, whole)
		all := []*writer{in, ref, plain}

		inPlace, idx := 0, uint64(0)
		for epoch := 1; epoch <= 48; epoch++ {
			steps := 1 + r.Intn(150)
			halted := in.run(t, steps)
			ref.run(t, steps)
			plain.run(t, steps)
			idx++
			var pending, channel []mpi.RecordedMsg
			abandon := false
			switch k := r.Intn(40); k {
			case 0:
				abandon = true
			case 1:
				for _, w := range all {
					w.back.failNext = true
				}
			case 2:
				pending = []mpi.RecordedMsg{{Src: 1, Tag: 3, Seq: uint64(epoch), Data: make([]byte, r.Intn(9000))}}
			case 3:
				channel = []mpi.RecordedMsg{{Src: 1, Tag: 4, Seq: uint64(epoch), Data: []byte("in flight")}}
			case 4:
				// Somebody else stores a slot of the rank: the module's next
				// epoch does not follow its base.
				foreign := make([]byte, 5000+r.Intn(5000))
				r.Read(foreign)
				for _, w := range all {
					if err := w.back.PutRecord(9, 0, idx, ckpt.RecordOf(idx, nil, nil, nil, foreign), nil); err != nil {
						t.Fatal(err)
					}
				}
				idx++
			}
			was, errIn := in.epoch(t, idx, pending, channel, abandon)
			refInPlace, errRef := ref.epoch(t, idx, pending, channel, abandon)
			if _, err := plain.epoch(t, idx, pending, channel, abandon); (err == nil) != (errIn == nil) {
				t.Fatalf("checkpoint %d: store errors %v vs %v", idx, errIn, err)
			}
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
				// The round is run again under its index: the next epoch
				// follows the base, but the hint is relative to a
				// snapshot nobody stored.
				idx--
				continue
			}
			if was {
				inPlace++
			}
			sameLastRecord(t, idx, in.back, ref.back)
			if !bytes.Equal(in.image(t, idx), plain.image(t, idx)) {
				t.Fatalf("checkpoint %d (in place: %v): the records do not reconstruct the image", idx, was)
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
	w := newWriter(svm.Machines[5], heapChurn(r, heap, 4, false), 4, heap, inPlace)
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
		state, err := w.cr.p.encoder.Decode(w.image(t, uint64(i+1)), w.cr.p.arch)
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

// epochEvents collects the ckpt/epoch records a process emits.
type epochEvents []evstore.Record

func (e *epochEvents) Emit(r evstore.Record) {
	if r.Component == "ckpt" && r.Kind == "epoch" {
		*e = append(*e, r)
	}
}

// TestEpochEventPerStoredEpoch: each stored epoch, delta or whole image,
// emits exactly one ckpt/epoch record, its raw the image's length, its
// stored the record's, and its drain_us, wait_us and store_us the time from
// its snapshot to its hand-off, the time it waited for its capture worker and
// the time the worker took to write and store it; an epoch the store refused
// emits none. A write
// tracker's records after its first are a fraction of the image, with no
// setting asked for.
func TestEpochEventPerStoredEpoch(t *testing.T) {
	const heap = 20000
	src := heapChurn(rand.New(rand.NewSource(3)), heap, 4, false)
	for _, mode := range []int{inPlace, whole} {
		w := newWriter(svm.Machines[5], src, 4, heap, mode)
		var evs epochEvents
		w.cr.p.events = &evs
		for idx := uint64(1); idx <= 6; idx++ {
			w.run(t, 40)
			fail := idx == 4
			w.back.failNext = fail
			before := len(evs)
			_, err := w.epoch(t, idx, nil, nil, false)
			if fail {
				if err == nil || len(evs) != before {
					t.Fatalf("mode %d, checkpoint %d: a refused epoch (err %v) emitted %d records", mode, idx, err, len(evs)-before)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != before+1 {
				t.Fatalf("mode %d, checkpoint %d: %d ckpt/epoch records, want 1", mode, idx, len(evs)-before)
			}
			e := evs[len(evs)-1]
			raw, stored := len(w.image(t, idx)), len(w.back.recs[len(w.back.recs)-1])
			for k, want := range map[string]int{"index": int(idx), "raw": raw, "stored": stored} {
				if got, _ := e.Get(k); got != fmt.Sprint(want) {
					t.Errorf("mode %d, checkpoint %d: %s = %s, want %d", mode, idx, k, got, want)
				}
			}
			// How long the epoch took from its snapshot to its hand-off,
			// how long it waited for its worker, and how long the worker
			// took to write and store it, in microseconds.
			for _, k := range []string{"drain_us", "wait_us", "store_us"} {
				got, _ := e.Get(k)
				if us, err := strconv.ParseInt(got, 10, 64); err != nil || us < 0 || us > 60e6 {
					t.Errorf("mode %d, checkpoint %d: %s = %q", mode, idx, k, got)
				}
			}
			if delta := mode != whole && idx != 1 && idx != 5; delta != (4*stored < raw) {
				t.Errorf("mode %d, checkpoint %d: a %d-byte record of a %d-byte image", mode, idx, stored, raw)
			}
		}
	}
}
