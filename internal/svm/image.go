package svm

import (
	"bytes"
	"fmt"
)

// Image format: a 8-byte magic+tag header followed by sections written in
// the *native representation* of the checkpointing machine. The tag is the
// paper's "concise indication of what that representation is"; everything
// after it — counts and words alike — uses the tagged endianness and word
// length. Conversion happens entirely at decode (restart) time, so taking
// a checkpoint never pays conversion cost, matching [2].
//
//	magic   [5]byte  "SVMv1"
//	endian  u8       0=little, 1=big
//	word    u8       32 or 64
//	flags   u8       reserved (0)
//	pc, steps, halted, then counted sections:
//	code (op u8 + arg word each), stack, callstack, globals, mem, output
var imageMagic = [5]byte{'S', 'V', 'M', 'v', '1'}

// EncodeImage serializes the VM's complete state in its own architecture's
// native representation. The buffer is sized once and the word sections —
// where all the bytes are — go through putWords, one bulk loop per section
// (image_golden_test.go keeps the word-at-a-time encoder as the reference).
func (m *VM) EncodeImage() []byte {
	a := m.Arch
	wb := a.wordBytes()
	buf := make([]byte, m.ImageSize())
	copy(buf, imageMagic[:])
	buf[5], buf[6], buf[7] = byte(a.Order), byte(a.WordBits), 0
	m.putCounters(buf)

	a.setU32(buf[24:], uint32(len(m.Code)))
	off := 28
	var arg [1]int64
	for _, in := range m.Code {
		buf[off] = byte(in.Op)
		arg[0] = in.Arg
		a.putWords(buf[off+1:], arg[:])
		off += 1 + wb
	}
	for _, sec := range [][]int64{m.Stack, m.CallStack, m.Globals, m.Mem, m.Output} {
		a.setU32(buf[off:], uint32(len(sec)))
		a.putWords(buf[off+4:], sec)
		off += 4 + len(sec)*wb
	}
	return buf
}

// putCounters writes PC, Steps and Halted: metadata, not program values,
// stored as fixed 32-bit quantities (in native byte order) so a long-running
// computation's step count survives narrow-word machines.
func (m *VM) putCounters(img []byte) {
	a := m.Arch
	a.setU32(img[8:], uint32(m.PC))
	a.setU32(img[12:], uint32(m.Steps>>32))
	a.setU32(img[16:], uint32(m.Steps))
	a.setU32(img[20:], uint32(boolWord(m.Halted)))
}

// EncodeDirty brings img, which must hold the image encoded at the tracking
// baseline (the last TrackDirty or ResetDirty), up to date by re-encoding only
// what DirtyByteSpans names: counters, both stacks, the globals if one was
// stored to, the heap chunks written. It reports false, having written nothing,
// when tracking is off, a section changed length or img has another size.
func (m *VM) EncodeDirty(img []byte) bool {
	d := m.dirty
	if d == nil || d.resized(m) || len(img) != m.ImageSize() {
		return false
	}
	a := m.Arch
	wb := a.wordBytes()
	m.putCounters(img)
	off := 28 + len(m.Code)*(1+wb)
	a.putWords(img[off+4:], m.Stack)
	off += 4 + len(m.Stack)*wb
	a.putWords(img[off+4:], m.CallStack)
	off += 4 + len(m.CallStack)*wb
	if d.globals {
		a.putWords(img[off+4:], m.Globals)
	}
	off += 4 + len(m.Globals)*wb + 4
	d.memRuns(func(lo, hi int) {
		a.putWords(img[off+lo*wb:], m.Mem[lo:hi])
	})
	return true
}

// imageReader walks an image in its stored representation.
type imageReader struct {
	arch Arch
	buf  []byte
}

func (r *imageReader) word() (int64, error) {
	v, err := r.arch.getWord(r.buf)
	if err != nil {
		return 0, err
	}
	r.buf = r.buf[r.arch.wordBytes():]
	return v, nil
}

func (r *imageReader) u32() (uint32, error) {
	v, err := r.arch.getU32(r.buf)
	if err != nil {
		return 0, err
	}
	r.buf = r.buf[4:]
	return v, nil
}

func (r *imageReader) count() (int, error) {
	v, err := r.arch.getU32(r.buf)
	if err != nil {
		return 0, err
	}
	r.buf = r.buf[4:]
	if int(v) > len(r.buf) { // each element is at least one byte
		return 0, ErrBadImage
	}
	return int(v), nil
}

func (r *imageReader) byte() (byte, error) {
	if len(r.buf) < 1 {
		return 0, errShortImage
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// ImageArch returns the architecture tag of an encoded image without
// decoding it.
func ImageArch(img []byte) (Arch, error) {
	if len(img) < 8 || !bytes.Equal(img[:5], imageMagic[:]) {
		return Arch{}, ErrBadImage
	}
	order := Endian(img[5])
	bits := int(img[6])
	if order > BigEndian || (bits != 32 && bits != 64) {
		return Arch{}, fmt.Errorf("%w: bad representation tag", ErrBadImage)
	}
	return Arch{Name: "image", Order: order, WordBits: bits}, nil
}

// DecodeImage reconstructs a VM from img for execution on target. When the
// image representation differs from target, every word is converted: byte
// order is swapped as needed and word length widened (sign-extension) or
// narrowed. Narrowing fails with ErrWordOverflow if any live value does not
// fit the target word, because the computation could not have produced that
// state on the target machine.
func DecodeImage(img []byte, target Arch) (*VM, error) {
	src, err := ImageArch(img)
	if err != nil {
		return nil, err
	}
	r := &imageReader{arch: src, buf: img[8:]}

	conv := func(v int64) (int64, error) {
		if !target.fits(v) {
			return 0, fmt.Errorf("%w: value %d into %d-bit word", ErrWordOverflow, v, target.WordBits)
		}
		return v, nil
	}

	pc, err := r.u32()
	if err != nil {
		return nil, err
	}
	stepsHi, err := r.u32()
	if err != nil {
		return nil, err
	}
	stepsLo, err := r.u32()
	if err != nil {
		return nil, err
	}
	halted, err := r.u32()
	if err != nil {
		return nil, err
	}

	m := &VM{
		Arch:   target,
		PC:     int(int32(pc)),
		Steps:  uint64(stepsHi)<<32 | uint64(stepsLo),
		Halted: halted != 0,
	}

	ncode, err := r.count()
	if err != nil {
		return nil, err
	}
	m.Code = make([]Instr, ncode)
	for i := range m.Code {
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		if Op(op) >= opCount {
			return nil, fmt.Errorf("%w: opcode %d", ErrBadInstrImage, op)
		}
		arg, err := r.word()
		if err != nil {
			return nil, err
		}
		if arg, err = conv(arg); err != nil {
			return nil, err
		}
		m.Code[i] = Instr{Op: Op(op), Arg: arg}
	}
	m.prog = decode(m.Code)

	for _, dst := range []*[]int64{&m.Stack, &m.CallStack, &m.Globals, &m.Mem, &m.Output} {
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		sec := make([]int64, n)
		if dst == &m.Stack || dst == &m.CallStack {
			sec = alignedWords(n)
		}
		for i := range sec {
			v, err := r.word()
			if err != nil {
				return nil, err
			}
			if sec[i], err = conv(v); err != nil {
				return nil, err
			}
		}
		*dst = sec
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadImage, len(r.buf))
	}
	return m, nil
}

// ImageSize returns the encoded size of the VM's state without encoding it.
func (m *VM) ImageSize() int {
	a := m.Arch
	words := len(m.Stack) + len(m.CallStack) + len(m.Globals) + len(m.Mem) + len(m.Output)
	// 8 header + 4 counters (u32) + 6 section counts (u32).
	return 8 + 4*4 + words*a.wordBytes() + 6*4 + len(m.Code)*(1+a.wordBytes())
}
