package svm

import "math/bits"

// Write tracking for incremental checkpointing. A VM with tracking enabled
// remembers which parts of its state changed since the last ResetDirty, and
// DirtyByteSpans maps that onto byte ranges of the *encoded image* — the
// dirty hints ckpt.Pipeline consumes. The hints are conservative
// (sound): a byte outside every span is guaranteed unchanged since the
// baseline, while bytes inside a span merely may have changed.
//
// Only the two opcodes that write addressable state (STOREM, STOREG) are
// instrumented; the small, constantly churning sections (counters, stack,
// call stack, output) are simply always reported dirty, and any section
// whose *length* changed dirties everything after it, because counted
// sections shift all downstream image offsets.

// Span is a half-open byte range [Off, Off+Len) of an encoded image.
type Span struct {
	Off, Len int
}

// Segment is a named span of an encoded image (see SegmentSpans).
type Segment struct {
	Name string
	Span
}

// dirtyState is the tracked baseline: section lengths at the last reset plus
// what was written since.
type dirtyState struct {
	codeLen   int
	stackLen  int
	callLen   int
	globalLen int
	memLen    int
	outLen    int

	globals bool
	// mem has one bit per dirtyChunk of Mem's encoded bytes, sized for
	// memLen; memShift turns a word address into its chunk number. A
	// bitmap rather than one [lo, hi) range, so a strided sweep that wraps
	// around the heap dirties two runs, not the whole heap.
	mem      []uint64
	memShift uint
}

// dirtyChunk is the tracking granularity of Mem in encoded bytes: the block
// size of the checkpoint differ.
const dirtyChunk = 4096

// TrackDirty enables write tracking, with the VM's current state as the
// clean baseline. Call it right after encoding the image the next delta will
// diff against (typically each checkpoint).
func (m *VM) TrackDirty() {
	m.dirty = &dirtyState{}
	m.ResetDirty()
}

// ResetDirty re-baselines tracking at the VM's current state (a no-op when
// tracking is disabled).
func (m *VM) ResetDirty() {
	d := m.dirty
	if d == nil {
		return
	}
	shift := uint(bits.TrailingZeros(uint(dirtyChunk / m.Arch.wordBytes())))
	chunks := (len(m.Mem) + 1<<shift - 1) >> shift
	mem := d.mem // at every checkpoint: cleared, not remade, while the heap keeps its size
	if clear(mem); len(mem) != (chunks+63)/64 {
		mem = make([]uint64, (chunks+63)/64)
	}
	*d = dirtyState{
		codeLen:   len(m.Code),
		stackLen:  len(m.Stack),
		callLen:   len(m.CallStack),
		globalLen: len(m.Globals),
		memLen:    len(m.Mem),
		outLen:    len(m.Output),
		mem:       mem,
		memShift:  shift,
	}
}

// resized reports whether a section changed length (and moved every later one).
func (d *dirtyState) resized(m *VM) bool {
	return len(m.Code) != d.codeLen || len(m.Stack) != d.stackLen || len(m.CallStack) != d.callLen ||
		len(m.Globals) != d.globalLen || len(m.Mem) != d.memLen || len(m.Output) != d.outLen
}

// memRuns visits, in order, the word range of each run of written chunks (heap of baseline length).
func (d *dirtyState) memRuns(visit func(lo, hi int)) {
	chunks := (d.memLen + 1<<d.memShift - 1) >> d.memShift
	for c := 0; c < chunks; c++ {
		if d.mem[c>>6] == 0 {
			c |= 63 // skip a clean bitmap word
			continue
		}
		if d.mem[c>>6]&(1<<(c&63)) == 0 {
			continue
		}
		lo := c
		for c+1 < chunks && d.mem[(c+1)>>6]&(1<<((c+1)&63)) != 0 {
			c++
		}
		visit(lo<<d.memShift, min((c+1)<<d.memShift, d.memLen))
	}
}

// markMem records a write to Mem[addr]. An address past the baseline length
// (the heap grew) needs no bit: a length change dirties the whole section.
func (d *dirtyState) markMem(addr int) {
	if c := addr >> d.memShift; c>>6 < len(d.mem) {
		d.mem[c>>6] |= 1 << (c & 63)
	}
}

// DirtyByteSpans returns the byte ranges of the current EncodeImage output
// that may differ from the baseline image, or nil when tracking is disabled
// (nil tells the differ to compare every block).
//
//starfish:deterministic
func (m *VM) DirtyByteSpans() []Span {
	d := m.dirty
	if d == nil {
		return nil
	}
	wb := m.Arch.wordBytes()
	total := m.ImageSize()
	// Header plus PC/Steps/Halted counters: change every step.
	spans := []Span{{0, 24}}
	off := 24

	rest := func() []Span { return append(spans, Span{off, total - off}) }

	// Code: length changes cannot happen in-run, but a resized code section
	// (hand-mutated VM) shifts everything — bail to "rest dirty".
	codeSize := 4 + len(m.Code)*(1+wb)
	if len(m.Code) != d.codeLen {
		return rest()
	}
	off += codeSize

	// Stack and call stack: small and hot, always reported dirty; a length
	// change shifts the sections behind them.
	stackSize := 4 + len(m.Stack)*wb
	if len(m.Stack) != d.stackLen {
		return rest()
	}
	if stackSize > 4 {
		spans = append(spans, Span{off, stackSize})
	}
	off += stackSize

	callSize := 4 + len(m.CallStack)*wb
	if len(m.CallStack) != d.callLen {
		return rest()
	}
	if callSize > 4 {
		spans = append(spans, Span{off, callSize})
	}
	off += callSize

	globalSize := 4 + len(m.Globals)*wb
	if len(m.Globals) != d.globalLen {
		return rest()
	}
	if d.globals {
		spans = append(spans, Span{off, globalSize})
	}
	off += globalSize

	// Mem: the big segment and the whole point of the hints — only the
	// written chunks are dirty, one span per run of them.
	memSize := 4 + len(m.Mem)*wb
	if len(m.Mem) != d.memLen {
		return rest()
	}
	d.memRuns(func(lo, hi int) {
		spans = append(spans, Span{off + 4 + lo*wb, (hi - lo) * wb})
	})
	off += memSize

	// Output: append-only; a length change is the only way it dirties, and
	// it is the last section, so only its own bytes are affected.
	if len(m.Output) != d.outLen {
		spans = append(spans, Span{off, total - off})
	}
	return spans
}

// SegmentSpans maps an encoded image into its named sections without
// decoding any words: where the code, stack, globals and heap bytes live.
// This is the differ's view of segment boundaries — e.g. the code and
// globals segments every rank of an SPMD app shares.
func SegmentSpans(img []byte) ([]Segment, error) {
	arch, err := ImageArch(img)
	if err != nil {
		return nil, err
	}
	wb := arch.wordBytes()
	r := &imageReader{arch: arch, buf: img[8:]}
	pos := func() int { return len(img) - len(r.buf) }

	segs := []Segment{{Name: "header", Span: Span{0, 24}}}
	for i := 0; i < 4; i++ { // pc, steps hi/lo, halted
		if _, err := r.u32(); err != nil {
			return nil, err
		}
	}

	section := func(name string, elemBytes int) error {
		start := pos()
		n, err := r.count()
		if err != nil {
			return err
		}
		need := n * elemBytes
		if len(r.buf) < need {
			return errShortImage
		}
		r.buf = r.buf[need:]
		segs = append(segs, Segment{Name: name, Span: Span{start, pos() - start}})
		return nil
	}
	if err := section("code", 1+wb); err != nil {
		return nil, err
	}
	for _, name := range []string{"stack", "callstack", "globals", "mem", "output"} {
		if err := section(name, wb); err != nil {
			return nil, err
		}
	}
	if len(r.buf) != 0 {
		return nil, ErrBadImage
	}
	return segs, nil
}
