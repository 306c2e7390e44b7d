package svm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// churnProgram is a random straight-line program that stores to the heap and
// the globals and pushes and pops the stack, and now and then grows the heap
// or the output stream — so that, cut into epochs, most keep every section's
// length and some do not.
func churnProgram(r *rand.Rand, heap, globals int) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < 600; i++ {
		switch k := r.Intn(40); {
		case k < 24:
			addr := r.Intn(heap)
			for j := 0; j < 1+r.Intn(4) && addr+j < heap; j++ {
				fmt.Fprintf(&b, "push %d\npush %d\nstorem\n", addr+j, r.Int31())
			}
		case k < 30:
			fmt.Fprintf(&b, "push %d\nstoreg %d\n", r.Int31(), r.Intn(globals))
		case k == 30:
			n := 1 + r.Intn(3000)
			fmt.Fprintf(&b, "push %d\nalloc\npop\n", n)
			heap += n
		case k == 31:
			fmt.Fprintf(&b, "push %d\nout\n", r.Int31())
		case k < 36:
			// Net-zero stack traffic: the section is rewritten, not resized.
			fmt.Fprintf(&b, "push %d\npush %d\nadd\npop\n", r.Int31(), r.Int31())
		case k < 38:
			fmt.Fprintf(&b, "push %d\n", r.Int31())
			depth++
		default:
			if depth > 0 {
				b.WriteString("pop\n")
				depth--
			}
		}
	}
	b.WriteString("halt\n")
	return b.String()
}

// TestEncodeDirtyMatchesEncodeImage: on every representation, patching the
// baseline image yields EncodeImage's bytes exactly, and a refusal — some
// section changed length — leaves the buffer untouched.
func TestEncodeDirtyMatchesEncodeImage(t *testing.T) {
	archs := append([]Arch{{Name: "be64", Order: BigEndian, WordBits: 64}}, Machines...)
	for ai, arch := range archs {
		patched, refused := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(ai)))
			heap := 2000 + r.Intn(20000)
			m := New(arch, MustAssemble(churnProgram(r, heap, 4)), 4)
			m.Grow(heap)
			if m.EncodeDirty(m.EncodeImage()) {
				t.Fatal("EncodeDirty patched for an untracked VM")
			}
			m.TrackDirty()
			buf := m.EncodeImage()
			for epoch := 0; ; epoch++ {
				halted, err := m.RunSteps(1 + r.Intn(60))
				if err != nil {
					t.Fatal(err)
				}
				want := m.EncodeImage()
				before := append([]byte(nil), buf...)
				if m.EncodeDirty(buf) {
					patched++
					if !bytes.Equal(buf, want) {
						t.Fatalf("%s seed %d epoch %d: patched image differs from EncodeImage", arch.Name, seed, epoch)
					}
				} else {
					refused++
					if !m.dirty.resized(m) {
						t.Fatalf("%s seed %d epoch %d: refused although no section changed length", arch.Name, seed, epoch)
					}
					if !bytes.Equal(buf, before) {
						t.Fatalf("%s seed %d epoch %d: a refused patch wrote to the buffer", arch.Name, seed, epoch)
					}
					buf = want
				}
				if m.EncodeDirty(buf[:len(buf)-1]) {
					t.Fatal("EncodeDirty patched a buffer of the wrong size")
				}
				m.ResetDirty()
				if halted {
					break
				}
			}
		}
		if patched == 0 || refused == 0 {
			t.Errorf("%s: %d epochs patched, %d refused; the programs should produce both", arch.Name, patched, refused)
		}
	}
}

// TestResetDirtyReusesBitmap: re-baselining an unchanged heap clears the
// bitmap it has.
func TestResetDirtyReusesBitmap(t *testing.T) {
	m := newWriterVM(t, 64*1024)
	m.TrackDirty()
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, m.ResetDirty); allocs != 0 {
		t.Errorf("ResetDirty allocates %.0f times on an unchanged heap", allocs)
	}
	if got := len(m.DirtyByteSpans()); got != 1 {
		t.Errorf("%d spans after a reset, want the counters alone", got)
	}
}

// TestVMsDoNotShareCacheLines: two ranks' interpreters run side by side, one
// goroutine each. Nearly every instruction writes a stack's backing array,
// and every slice the VM's counters: stacks that are 8-byte objects, or a VM
// that is not a whole number of lines, let two of them share a line and run
// at a quarter speed.
func TestVMsDoNotShareCacheLines(t *testing.T) {
	const cacheLine = 64
	if sz := unsafe.Sizeof(VM{}); sz%cacheLine != 0 {
		t.Errorf("VM is %d bytes, not a whole number of %d-byte lines", sz, cacheLine)
	}
	fresh := New(Machines[5], MustAssemble("push 1\ncall f\nhalt\nf: ret"), 1)
	if _, err := fresh.RunSteps(2); err != nil { // one word on each stack
		t.Fatal(err)
	}
	decoded, err := DecodeImage(fresh.EncodeImage(), Machines[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*VM{"fresh": fresh, "decoded": decoded} {
		for sec, s := range map[string][]int64{"stack": m.Stack, "call stack": m.CallStack} {
			if len(s) != 1 {
				t.Fatalf("%s VM: %s holds %d words, want 1", name, sec, len(s))
			}
			if addr := uintptr(unsafe.Pointer(&s[0])); addr%cacheLine != 0 {
				t.Errorf("%s VM: %s starts at %#x, not on a line boundary", name, sec, addr)
			}
			if cap(s)*8 < cacheLine {
				t.Errorf("%s VM: %s array is %d bytes, under a line", name, sec, cap(s)*8)
			}
		}
	}
}
