package svm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// writerProgram writes two heap words and one global, then halts. No alloc
// and no out, so every section keeps its baseline length.
const writerProgram = `
        push 3
        push 42
        storem        ; mem[3] = 42
        push 50
        push 7
        storem        ; mem[50] = 7
        push 1
        storeg 0      ; globals[0] = 1
        halt
`

func newWriterVM(t *testing.T, heapWords int) *VM {
	t.Helper()
	m := New(Machines[0], MustAssemble(writerProgram), 2)
	m.Grow(heapWords)
	return m
}

// storeProgram writes a distinct non-zero value to each given heap address.
func storeProgram(addrs ...int) string {
	var b strings.Builder
	for i, a := range addrs {
		fmt.Fprintf(&b, "push %d\npush %d\nstorem\n", a, i+1)
	}
	b.WriteString("halt\n")
	return b.String()
}

// checkSound fails unless every byte of next outside spans equals prev's,
// and returns the bytes the spans cover.
func checkSound(t *testing.T, prev, next []byte, spans []Span) int {
	t.Helper()
	if len(prev) != len(next) {
		t.Fatalf("image size changed %d -> %d", len(prev), len(next))
	}
	if spans == nil {
		t.Fatal("tracking enabled but no spans")
	}
	covered := make([]bool, len(next))
	dirtyBytes := 0
	for _, sp := range spans {
		if sp.Off < 0 || sp.Len <= 0 || sp.Off+sp.Len > len(next) {
			t.Fatalf("span %+v outside image of %d bytes", sp, len(next))
		}
		for i := sp.Off; i < sp.Off+sp.Len; i++ {
			covered[i] = true
		}
		dirtyBytes += sp.Len
	}
	for i := range next {
		if !covered[i] && prev[i] != next[i] {
			t.Fatalf("byte %d changed outside every dirty span", i)
		}
	}
	return dirtyBytes
}

func TestDirtySpansSound(t *testing.T) {
	const heap = 64 * 1024
	for _, arch := range []Arch{Machines[0], Machines[1], Machines[5]} {
		// Two neighbouring words, and a sweep that wraps around the end of
		// the heap: a single [lo, hi) range would call the whole heap dirty.
		for _, addrs := range [][]int{{3, 50}, {heap - 700, heap - 300, 100, 500}} {
			m := New(arch, MustAssemble(storeProgram(addrs...)), 2)
			m.Grow(heap)
			m.TrackDirty()
			prev := m.EncodeImage()
			if err := m.Run(1000); err != nil || !m.Halted {
				t.Fatalf("run: halted=%v err=%v", m.Halted, err)
			}
			next := m.EncodeImage()
			dirtyBytes := checkSound(t, prev, next, m.DirtyByteSpans())
			// Locality is the entire value of the hints: a few written
			// words dirty a few 4 KiB chunks, not the image.
			if dirtyBytes > 4*dirtyChunk+256 {
				t.Errorf("%s, writes %v: dirty spans cover %d of %d bytes", arch, addrs, dirtyBytes, len(next))
			}

			// After a reset the same machine reports the next epoch only.
			m.ResetDirty()
			if got := checkSound(t, next, m.EncodeImage(), m.DirtyByteSpans()); got > 256 {
				t.Errorf("%s: %d dirty bytes right after ResetDirty", arch, got)
			}
		}
	}
}

// TestDirtySpansRandomWrites: soundness over random write sets on every
// machine, including heaps that are not a whole number of chunks.
func TestDirtySpansRandomWrites(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		arch := Machines[r.Intn(len(Machines))]
		heap := 1 + r.Intn(40000)
		addrs := make([]int, 1+r.Intn(12))
		for j := range addrs {
			addrs[j] = r.Intn(heap)
		}
		m := New(arch, MustAssemble(storeProgram(addrs...)), 1)
		m.Grow(heap)
		m.TrackDirty()
		prev := m.EncodeImage()
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		checkSound(t, prev, m.EncodeImage(), m.DirtyByteSpans())
	}
}

func TestDirtySpansMemRange(t *testing.T) {
	// 32-bit words: a chunk is 1024 words. Words 3 and 1030 dirty chunks 0
	// and 1 (one merged span), word 5000 chunk 4, and the last word the
	// short final chunk [9216, 9300).
	const heap = 9300
	m := New(Machines[0], MustAssemble(storeProgram(3, 1030, 5000, heap-1)), 2)
	m.Grow(heap)
	m.TrackDirty()
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	segs, err := SegmentSpans(m.EncodeImage())
	if err != nil {
		t.Fatal(err)
	}
	var mem Segment
	for _, s := range segs {
		if s.Name == "mem" {
			mem = s
		}
	}
	if mem.Len == 0 {
		t.Fatal("no mem segment")
	}
	words := mem.Off + 4
	want := []Span{
		{words, 2 * dirtyChunk},
		{words + 4*dirtyChunk, dirtyChunk},
		{words + 9*dirtyChunk, (heap - 9*1024) * 4},
	}
	var got []Span
	for _, sp := range m.DirtyByteSpans() {
		if sp.Off >= words {
			got = append(got, sp)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mem spans = %v, want %v", got, want)
	}
}

func TestDirtySpansLengthChangeDirtiesTail(t *testing.T) {
	// alloc changes the mem section length: everything from mem on is dirty.
	m := New(Machines[0], MustAssemble("push 8\nalloc\nhalt"), 1)
	m.TrackDirty()
	total := m.ImageSize()
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	spans := m.DirtyByteSpans()
	last := spans[len(spans)-1]
	if last.Off+last.Len != m.ImageSize() {
		t.Errorf("length change must dirty through the image end: %v (size %d, was %d)",
			spans, m.ImageSize(), total)
	}
}

func TestDirtyDisabledAndRestoredVM(t *testing.T) {
	m := newWriterVM(t, 64)
	if m.DirtyByteSpans() != nil {
		t.Error("untracked VM reports spans")
	}
	m.ResetDirty() // no-op, must not panic
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// A VM decoded from an image starts untracked: the tracking state is
	// deliberately outside the image.
	restored, err := DecodeImage(m.EncodeImage(), Machines[1])
	if err != nil {
		t.Fatal(err)
	}
	if restored.DirtyByteSpans() != nil {
		t.Error("restored VM inherited tracking state")
	}
}

func TestSegmentSpansTile(t *testing.T) {
	m := newWriterVM(t, 64)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	img := m.EncodeImage()
	segs, err := SegmentSpans(img)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"header", "code", "stack", "callstack", "globals", "mem", "output"}
	if len(segs) != len(want) {
		t.Fatalf("segments = %d, want %d", len(segs), len(want))
	}
	off := 0
	for i, s := range segs {
		if s.Name != want[i] {
			t.Errorf("segment %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Off != off {
			t.Errorf("segment %q starts at %d, want %d (segments must tile)", s.Name, s.Off, off)
		}
		off += s.Len
	}
	if off != len(img) {
		t.Errorf("segments cover %d of %d bytes", off, len(img))
	}
	// Truncated images must error, never panic.
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := SegmentSpans(img[:cut]); err == nil {
			t.Fatalf("SegmentSpans accepted a %d-byte prefix", cut)
		}
	}
}
