package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

var (
	le32 = svm.Machines[0] // little-endian 32-bit
	be32 = svm.Machines[1] // big-endian 32-bit
	le64 = svm.Machines[5] // little-endian 64-bit
)

func TestNativeEncoderRoundTrip(t *testing.T) {
	e := &NativeEncoder{RuntimeImageSize: 1024}
	state := []byte("application state bytes")
	img, err := e.Encode(state, le32)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 1024+len(state) {
		t.Errorf("image %d bytes, want >= %d", len(img), 1024+len(state))
	}
	got, err := e.Decode(img, le32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, state) {
		t.Errorf("state mismatch: %q", got)
	}
}

// TestDecodeBorrows pins the restore-side copy budget: Decode hands out a
// view into the image (the Encoder contract), so the defensive copy cannot
// quietly come back.
func TestDecodeBorrows(t *testing.T) {
	state := bytes.Repeat([]byte{0xA5}, 4096)
	for _, e := range []Encoder{&NativeEncoder{RuntimeImageSize: 64}, &PortableEncoder{VMHeaderSize: 64}} {
		img, window := NewImage(e, le32, len(state))
		copy(window, state)
		got, err := e.Decode(img, le32)
		if err != nil {
			t.Fatalf("%v: %v", e.Kind(), err)
		}
		if !bytes.Equal(got, state) || &got[0] != &window[0] {
			t.Errorf("%v: Decode returned a copy of the state, want a view into the image", e.Kind())
		}
	}
}

func TestNativeEncoderRejectsForeignArch(t *testing.T) {
	e := &NativeEncoder{RuntimeImageSize: 64}
	img, _ := e.Encode([]byte("s"), le32)
	for _, target := range []svm.Arch{be32, le64} {
		if _, err := e.Decode(img, target); !errors.Is(err, ErrArchMismatch) {
			t.Errorf("decode on %v: err = %v, want ErrArchMismatch", target, err)
		}
	}
}

func TestPortableEncoderCrossArch(t *testing.T) {
	e := &PortableEncoder{VMHeaderSize: 64}
	state := []byte("portable state")
	img, _ := e.Encode(state, le32)
	for _, target := range []svm.Arch{le32, be32, le64} {
		got, err := e.Decode(img, target)
		if err != nil {
			t.Errorf("decode on %v: %v", target, err)
			continue
		}
		if !bytes.Equal(got, state) {
			t.Errorf("decode on %v: state mismatch", target)
		}
	}
}

func TestEncoderKindMismatch(t *testing.T) {
	n := &NativeEncoder{RuntimeImageSize: 16}
	p := &PortableEncoder{VMHeaderSize: 16}
	nimg, _ := n.Encode([]byte("x"), le32)
	pimg, _ := p.Encode([]byte("x"), le32)
	if _, err := n.Decode(pimg, le32); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("native decoding portable: %v", err)
	}
	if _, err := p.Decode(nimg, le32); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("portable decoding native: %v", err)
	}
}

func TestEncoderMalformedImages(t *testing.T) {
	for _, e := range []Encoder{&NativeEncoder{RuntimeImageSize: 32}, &PortableEncoder{VMHeaderSize: 32}} {
		if _, err := e.Decode(nil, le32); err == nil {
			t.Errorf("%v: nil image decoded", e.Kind())
		}
		img, _ := e.Encode([]byte("abc"), le32)
		if _, err := e.Decode(img[:len(img)-2], le32); err == nil {
			t.Errorf("%v: truncated image decoded", e.Kind())
		}
		if _, err := e.Decode(append(img, 1), le32); err == nil {
			t.Errorf("%v: padded image decoded", e.Kind())
		}
	}
}

func TestOverheadFloorsMatchPaper(t *testing.T) {
	// §5: native empty-program dump 632 KB, VM-level 260 KB — the native
	// floor must exceed the portable one.
	n := &NativeEncoder{}
	p := &PortableEncoder{}
	if n.Overhead() != DefaultNativeRuntimeSize || p.Overhead() != DefaultVMHeaderSize {
		t.Errorf("overheads = %d, %d", n.Overhead(), p.Overhead())
	}
	if n.Overhead() <= p.Overhead() {
		t.Error("native floor must exceed portable floor")
	}
	nimg, _ := n.Encode(nil, le32)
	pimg, _ := p.Encode(nil, le32)
	if len(nimg) < n.Overhead() || len(pimg) < p.Overhead() {
		t.Error("empty-program images smaller than the declared floors")
	}
}

func TestImageOrigin(t *testing.T) {
	p := &PortableEncoder{VMHeaderSize: 8}
	img, _ := p.Encode([]byte("x"), be32)
	arch, kind, err := ImageOrigin(img)
	if err != nil {
		t.Fatal(err)
	}
	if kind != Portable || arch.Order != svm.BigEndian || arch.WordBits != 32 {
		t.Errorf("origin = %v %v", arch, kind)
	}
	if _, _, err := ImageOrigin([]byte{1, 2}); err == nil {
		t.Error("short image accepted")
	}
}

func TestSVMThroughPortableEncoder(t *testing.T) {
	// End-to-end heterogeneous path: run an SVM on LE32, checkpoint
	// through the portable encoder, restore on BE32 and on LE64, resume,
	// and compare results.
	prog := svm.MustAssemble(`
        push 0
        storeg 0
loop:   loadg 1
        jz done
        loadg 0
        loadg 1
        add
        storeg 0
        loadg 1
        push 1
        sub
        storeg 1
        jmp loop
done:   loadg 0
        out
        halt`)
	ref := svm.New(le32, prog, 2)
	ref.Globals[1] = 60
	if err := ref.Run(1 << 16); err != nil {
		t.Fatal(err)
	}

	m := svm.New(le32, prog, 2)
	m.Globals[1] = 60
	if _, err := m.RunSteps(100); err != nil {
		t.Fatal(err)
	}
	enc := &PortableEncoder{VMHeaderSize: 128}
	img, err := enc.Encode(m.EncodeImage(), le32)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []svm.Arch{be32, le64} {
		state, err := enc.Decode(img, target)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := svm.DecodeImage(state, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(1 << 16); err != nil {
			t.Fatal(err)
		}
		if len(vm.Output) != 1 || vm.Output[0] != ref.Output[0] {
			t.Errorf("restore on %v: output %v, want %v", target, vm.Output, ref.Output)
		}
	}
}

func TestQuickEncoderRoundTrip(t *testing.T) {
	n := &NativeEncoder{RuntimeImageSize: 128}
	p := &PortableEncoder{VMHeaderSize: 128}
	prop := func(state []byte, archIdx uint8) bool {
		arch := svm.Machines[int(archIdx)%len(svm.Machines)]
		for _, e := range []Encoder{n, p} {
			img, err := e.Encode(state, arch)
			if err != nil {
				return false
			}
			got, err := e.Decode(img, arch)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, state) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMetaEncodeDecode(t *testing.T) {
	m := &Meta{
		Rank:  2,
		Index: 5,
		Deps: []Dep{
			{From: IntervalID{Rank: 0, Index: 3}, To: IntervalID{Rank: 2, Index: 4}},
			{From: IntervalID{Rank: 1, Index: 2}, To: IntervalID{Rank: 2, Index: 4}},
		},
		SentCounts: map[wire.Rank]uint64{0: 10, 1: 7},
	}
	got, err := DecodeMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 2 || got.Index != 5 || len(got.Deps) != 2 || got.SentCounts[1] != 7 {
		t.Errorf("round trip = %+v", got)
	}
	if got.Deps[0].From.Rank != 0 || got.Deps[0].To.Index != 4 {
		t.Errorf("deps = %+v", got.Deps)
	}
	if _, err := DecodeMeta([]byte{1}); err == nil {
		t.Error("short meta decoded")
	}
}

func TestProtocolStrings(t *testing.T) {
	if StopAndSync.String() != "stop-and-sync" || !StopAndSync.Coordinated() {
		t.Error("StopAndSync misdescribed")
	}
	if ChandyLamport.String() != "chandy-lamport" || !ChandyLamport.Coordinated() {
		t.Error("ChandyLamport misdescribed")
	}
	if Independent.String() != "independent" || Independent.Coordinated() {
		t.Error("Independent misdescribed")
	}
}

// TestEncodeMatchesReference: the single-buffer image writer with its cached
// runtime segment produces the bytes the encoders always produced — header,
// byte-loop-filled runtime segment, state — for both kinds, on every machine,
// at default and custom segment sizes; NewImage lays out the same image
// around a window the caller fills.
func TestEncodeMatchesReference(t *testing.T) {
	reference := func(magic uint32, mult, overhead int, state []byte, arch svm.Arch) []byte {
		runtime := make([]byte, overhead)
		for i := range runtime {
			runtime[i] = byte(i * mult)
		}
		w := wire.NewWriter(32 + len(runtime) + len(state))
		w.U32(magic)
		w.U8(uint8(arch.Order)).U8(uint8(arch.WordBits))
		w.Bytes32(runtime)
		w.Bytes32(state)
		return w.Bytes()
	}
	state := make([]byte, 70000)
	rand.New(rand.NewSource(5)).Read(state)
	for _, arch := range svm.Machines {
		for _, size := range []int{0, 1000} { // 0: the paper's default sizes
			for _, st := range [][]byte{nil, state[:1], state} {
				n, p := &NativeEncoder{RuntimeImageSize: size}, &PortableEncoder{VMHeaderSize: size}
				for _, c := range []struct {
					enc  Encoder
					want []byte
				}{
					{n, reference(imgMagicNative, 2654435761, n.Overhead(), st, arch)},
					{p, reference(imgMagicPortable, 40503, p.Overhead(), st, arch)},
				} {
					got, err := c.enc.Encode(st, arch)
					if err != nil || !bytes.Equal(got, c.want) {
						t.Fatalf("%s encoder, %s, segment %d, %d-byte state: image differs from the reference (err %v)",
							c.enc.Kind(), arch, size, len(st), err)
					}
					img, window := NewImage(c.enc, arch, len(st))
					if copy(window, st) != len(st) || !bytes.Equal(img, c.want) {
						t.Fatalf("%s encoder: NewImage lays out a different image", c.enc.Kind())
					}
				}
			}
		}
	}
}
