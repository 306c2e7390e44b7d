package svm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomVM builds a structurally valid VM with values representable on all
// architectures (32-bit range), for cross-architecture properties.
func randomVM(r *rand.Rand, arch Arch) *VM {
	word := func() int64 { return int64(int32(r.Uint32())) }
	n := func(max int) int { return r.Intn(max) }

	m := &VM{Arch: arch}
	m.Code = make([]Instr, n(64)+1)
	for i := range m.Code {
		m.Code[i] = Instr{Op: Op(r.Intn(int(opCount))), Arg: word()}
	}
	fill := func(size int) []int64 {
		s := make([]int64, size)
		for i := range s {
			s[i] = word()
		}
		return s
	}
	m.Stack = fill(n(32))
	m.CallStack = fill(n(8))
	m.Globals = fill(n(16))
	m.Mem = fill(n(128))
	m.Output = fill(n(16))
	m.PC = n(len(m.Code))
	m.Steps = uint64(r.Uint32())
	m.Halted = r.Intn(2) == 0
	return m
}

func TestQuickCrossArchImageRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			src := Machines[r.Intn(len(Machines))]
			dst := Machines[r.Intn(len(Machines))]
			vals[0] = reflect.ValueOf(randomVM(r, src))
			vals[1] = reflect.ValueOf(dst)
		},
	}
	prop := func(m *VM, dst Arch) bool {
		img := m.EncodeImage()
		if len(img) != m.ImageSize() {
			return false
		}
		got, err := DecodeImage(img, dst)
		if err != nil {
			return false
		}
		got.Arch = m.Arch // Equal ignores arch, but keep tidy
		return got.Equal(m)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDoubleConversionIsIdentity(t *testing.T) {
	// A->B->A conversion must be lossless for 32-bit-representable state.
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomVM(r, Machines[r.Intn(len(Machines))]))
			vals[1] = reflect.ValueOf(Machines[r.Intn(len(Machines))])
		},
	}
	prop := func(m *VM, via Arch) bool {
		mid, err := DecodeImage(m.EncodeImage(), via)
		if err != nil {
			return false
		}
		back, err := DecodeImage(mid.EncodeImage(), m.Arch)
		if err != nil {
			return false
		}
		return back.Equal(m)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickWordCodec(t *testing.T) {
	// putWord/getWord round-trip on every architecture for in-range values.
	prop := func(v int32, archIdx uint8) bool {
		a := Machines[int(archIdx)%len(Machines)]
		buf := a.putWord(nil, int64(v))
		if len(buf) != a.wordBytes() {
			return false
		}
		got, err := a.getWord(buf)
		return err == nil && got == int64(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickExecutionDeterminismAcrossCheckpoint(t *testing.T) {
	// Property: for a random cut point, running to completion directly and
	// running via checkpoint+convert+restore at the cut yields identical
	// final state. The cut is reached in slices of a random length, so it
	// and the slices before it end anywhere in a fused group.
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(int64(r.Intn(150) + 1)) // n
			vals[1] = reflect.ValueOf(uint64(r.Intn(2000)))   // cut
			vals[2] = reflect.ValueOf(1 + r.Intn(12))         // slice
			vals[3] = reflect.ValueOf(Machines[r.Intn(len(Machines))])
			vals[4] = reflect.ValueOf(Machines[r.Intn(len(Machines))])
		},
	}
	prog := MustAssemble(sumProgram)
	prop := func(n int64, cut uint64, slice int, src, dst Arch) bool {
		direct := New(src, prog, 2)
		direct.Globals[1] = n
		if err := direct.Run(1 << 20); err != nil {
			return false
		}

		m := New(src, prog, 2)
		m.Globals[1] = n
		for left := int(cut); left > 0 && !m.Halted; left -= slice {
			if _, err := m.RunSteps(min(left, slice)); err != nil {
				return false
			}
		}
		resumed, err := DecodeImage(m.EncodeImage(), dst)
		if err != nil {
			return false
		}
		if err := resumed.Run(1 << 20); err != nil {
			return false
		}
		return eqSlice(resumed.Output, direct.Output) && resumed.Steps == direct.Steps
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
