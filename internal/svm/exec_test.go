package svm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// execCase is one differential run: a machine booted with a program and
// preloaded globals, heap and stack, driven through RunSteps slices of the
// given lengths, once on the decoded loop and once on the reference
// interpreter (ref_test.go).
type execCase struct {
	arch    int  // index into Machines
	track   bool // write tracking on, so DirtyByteSpans is compared too
	literal bool // the VM is built as a struct literal: its table is decoded lazily
	code    []Instr
	globals []int64
	mem     []int64
	stack   []int64
	slices  []int
}

// Bounds on a decoded case, so that any input runs in bounded time and memory.
const (
	maxCaseCode    = 256
	maxCaseGlobals = 32
	maxCaseMem     = 4096
	maxCaseStack   = 64
	maxCaseSlices  = 64
	maxCaseSlice   = 4096
	maxCaseAlloc   = 1 << 12 // words a single alloc may add
)

func (c execCase) encode() []byte {
	flags := byte(0)
	if c.track {
		flags |= 1
	}
	if c.literal {
		flags |= 2
	}
	buf := []byte{byte(c.arch), flags}
	buf = binary.AppendUvarint(buf, uint64(len(c.code)))
	for _, in := range c.code {
		buf = binary.AppendVarint(append(buf, byte(in.Op)), in.Arg)
	}
	for _, sec := range [][]int64{c.globals, c.mem, c.stack} {
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
		for _, v := range sec {
			buf = binary.AppendVarint(buf, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.slices)))
	for _, n := range c.slices {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return buf
}

// decodeCase reads any byte string as a case: a short input ends its
// sections early, counts and lengths are clamped.
func decodeCase(data []byte) execCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	uvarint := func(limit int) int {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return int(v % uint64(limit+1))
	}
	varint := func() int64 {
		v, n := binary.Varint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	c := execCase{arch: int(next()) % len(Machines)}
	flags := next()
	c.track, c.literal = flags&1 != 0, flags&2 != 0
	c.code = make([]Instr, uvarint(maxCaseCode))
	for i := range c.code {
		c.code[i] = Instr{Op: Op(next()), Arg: varint()}
	}
	for _, sec := range []struct {
		dst   *[]int64
		limit int
	}{{&c.globals, maxCaseGlobals}, {&c.mem, maxCaseMem}, {&c.stack, maxCaseStack}} {
		*sec.dst = make([]int64, uvarint(sec.limit))
		for i := range *sec.dst {
			(*sec.dst)[i] = varint()
		}
	}
	c.slices = make([]int, uvarint(maxCaseSlices))
	for i := range c.slices {
		c.slices[i] = uvarint(maxCaseSlice)
	}
	return c
}

// boot builds the case's machine.
func (c execCase) boot() *VM {
	var m *VM
	if c.literal {
		m = &VM{Arch: Machines[c.arch], Code: append([]Instr(nil), c.code...), Globals: make([]int64, len(c.globals))}
	} else {
		m = New(Machines[c.arch], c.code, len(c.globals))
	}
	copy(m.Globals, c.globals)
	m.Mem = append([]int64(nil), c.mem...)
	m.Stack = append(m.Stack, c.stack...)
	if c.track {
		m.TrackDirty()
	}
	return m
}

// refSlice runs ref as refRunSteps(n) would, but stops short of an alloc
// too large for a test (cut) and reports how many instructions it ran.
func refSlice(ref *VM, n int) (ran int, halted bool, err error, cut bool) {
	for ran < n && !ref.Halted {
		if pc := ref.PC; pc >= 0 && pc < len(ref.Code) && ref.Code[pc].Op == ALLOC && len(ref.Stack) > 0 &&
			(ref.Stack[len(ref.Stack)-1] > maxCaseAlloc || len(ref.Mem) > 4*maxCaseMem) {
			return ran, false, nil, true
		}
		ran++
		if err := ref.refStep(); err != nil {
			return ran, false, err, false
		}
	}
	return ran, ref.Halted, nil, false
}

var sentinels = []error{
	ErrHalted, ErrStackEmpty, ErrBadPC, ErrBadAddress, ErrBadGlobal, ErrDivByZero,
	ErrCallDepth, ErrRetEmpty, ErrStepLimit,
}

// diffVM names the first observable difference between fast and ref, or "".
func diffVM(fast, ref *VM) string {
	switch {
	case fast.Steps != ref.Steps:
		return fmt.Sprintf("steps %d, reference %d", fast.Steps, ref.Steps)
	case fast.PC != ref.PC:
		return fmt.Sprintf("pc %d, reference %d", fast.PC, ref.PC)
	case fast.Halted != ref.Halted:
		return fmt.Sprintf("halted %v, reference %v", fast.Halted, ref.Halted)
	}
	for _, s := range []struct {
		name      string
		fast, ref []int64
	}{
		{"stack", fast.Stack, ref.Stack}, {"call stack", fast.CallStack, ref.CallStack},
		{"globals", fast.Globals, ref.Globals}, {"heap", fast.Mem, ref.Mem}, {"output", fast.Output, ref.Output},
	} {
		if !eqSlice(s.fast, s.ref) {
			return fmt.Sprintf("%s %v, reference %v", s.name, s.fast, s.ref)
		}
	}
	if f, r := fast.DirtyByteSpans(), ref.DirtyByteSpans(); !reflect.DeepEqual(f, r) {
		return fmt.Sprintf("dirty spans %v, reference %v", f, r)
	}
	return ""
}

// diffErr names how two errors differ: presence, message or errors.Is target.
func diffErr(fast, ref error) string {
	if (fast == nil) != (ref == nil) || fast != nil && fast.Error() != ref.Error() {
		return fmt.Sprintf("error %v, reference %v", fast, ref)
	}
	for _, s := range sentinels {
		if errors.Is(fast, s) != errors.Is(ref, s) {
			return fmt.Sprintf("error %v is %v: %v, reference %v", fast, s, errors.Is(fast, s), errors.Is(ref, s))
		}
	}
	return ""
}

// checkCase runs c on both interpreters and fails at the first slice after
// which they differ.
func checkCase(t *testing.T, c execCase) {
	t.Helper()
	fast, ref := c.boot(), c.boot()
	for i, n := range c.slices {
		ran, rhalted, rerr, cut := refSlice(ref, n)
		if cut {
			n = ran
		}
		fhalted, ferr := fast.RunSteps(n)
		d := diffErr(ferr, rerr)
		if d == "" && fhalted != rhalted {
			d = fmt.Sprintf("RunSteps reported halted %v, reference %v", fhalted, rhalted)
		}
		if d == "" {
			d = diffVM(fast, ref)
		}
		if d != "" {
			t.Fatalf("%s, slice %d (RunSteps(%d)): %s\n%s", Machines[c.arch].Name, i, n, d, Disassemble(c.code))
		}
		if cut || rerr != nil || rhalted {
			return
		}
	}
}

// FuzzRunSteps is the differential oracle: random programs over every opcode
// (and ones outside the set), with random globals, heap and stack, on all six
// machines, run in random slice lengths, must leave the decoded loop and the
// reference interpreter identical after every slice — Steps, PC, Halted, both
// stacks, globals, heap, output, dirty spans, and any error's message and
// errors.Is target.
func FuzzRunSteps(f *testing.F) {
	for _, c := range execSeeds() {
		f.Add(c.encode())
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 300; i++ {
		f.Add(randomCase(r).encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCase(t, decodeCase(data))
	})
}

// everyArch returns c on each of the six machines.
func everyArch(c execCase) []execCase {
	out := make([]execCase, len(Machines))
	for i := range out {
		out[i] = c
		out[i].arch = i
	}
	return out
}

// upTo returns the slice lengths 1, 2, …, n, 1, 2, …: consecutive slices end
// at every offset of a loop body of up to n instructions, over and over.
func upTo(n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = 1 + i%n
	}
	return out
}

// execSeeds are the cases the oracle must always cover.
func execSeeds() []execCase {
	var seeds []execCase
	add := func(c execCase) { seeds = append(seeds, everyArch(c)...) }

	// The heap-writer and sumProgram, in slices that end at every offset of
	// their loops and then run to the end. The heap-writer's heap spans
	// several dirty-tracking chunks on every machine.
	add(execCase{
		track: true, code: heapWriter,
		globals: []int64{hwLimit: 5, hwAddr: 1, hwStride: 1187, hwHeap: 3000, hwInner: 3, hwX: 2, hwI: 0},
		mem:     make([]int64, 3000),
		slices:  append(upTo(17, 40), 4000),
	})
	add(execCase{code: MustAssemble(sumProgram), globals: []int64{0, 12}, slices: append(upTo(13, 30), 1000)})

	// A slice ending inside each fused shape: every group of the loop below
	// is cut at each of its offsets by some slice.
	add(execCase{track: true, code: MustAssemble(`
        push 3
        storeg 0
loop:   loadg 0          ; loadg; jz
        jz end
        loadg 1          ; loadg; push; <binop>
        push 7
        mul
        push 5           ; push; <binop>; storeg
        add
        storeg 1
        loadg 1          ; push; <binop>
        dup
        push 2
        shl
        xor
        storeg 2
        loadg 0          ; loadg; push; <binop>; storeg
        push 1
        sub
        storeg 0
        loadg 0          ; loadg; jnz
        jnz loop
end:    loadg 2
        out
        halt`), globals: make([]int64, 3), slices: append(upTo(5, 60), 500)})

	// Jumps into the middle of fused groups.
	add(execCase{code: MustAssemble(`
        push 1
        jmp mid
        loadg 0
mid:    push 5
        add
        storeg 0
        loadg 0
        jmp tail
        loadg 0
tail:   jnz done
        push 9
        out
done:   loadg 0
        out
        halt`), globals: []int64{4}, slices: []int{100}})

	// A fused div or mod whose divisor truncates to 0 on a 32-bit machine
	// (and is 2^32 on a 64-bit one).
	add(execCase{code: MustAssemble(`
        loadg 0
        push 4294967296
        mod
        storeg 1
        push 8
        push 4294967296
        div
        out
        halt`), globals: []int64{12, 0}, slices: []int{100}})
	add(execCase{code: MustAssemble(`
        push 8
        push -4294967296
        div
        halt`), slices: []int{1, 1, 1, 1}})

	// A fused storeg to a global that does not exist, then one below zero.
	add(execCase{code: MustAssemble(`
        loadg 0
        push 1
        add
        storeg 7
        halt`), globals: []int64{1, 2}, slices: []int{100}})
	add(execCase{code: MustAssemble(`
        push 1
        push 2
        add
        storeg -1
        halt`), globals: []int64{1}, slices: []int{100}})

	// swap and binops on a one-deep stack, and push k; <binop> on an empty one.
	for _, src := range []string{"swap\nhalt", "add\nhalt", "div\nhalt", "storem\nhalt", "push 4\nsub\nsub\nhalt"} {
		add(execCase{code: MustAssemble(src), stack: []int64{5}, slices: []int{10}})
	}
	add(execCase{code: MustAssemble("push 4\nsub\nhalt"), slices: []int{10}})

	// An opcode outside the instruction set, and a table decoded lazily.
	add(execCase{code: []Instr{{Op: PUSH, Arg: 1}, {Op: 99, Arg: 3}}, slices: []int{10}})
	add(execCase{literal: true, code: MustAssemble(sumProgram), globals: []int64{0, 5}, slices: []int{7, 7, 1000}})
	return seeds
}

// randomCase draws a program rich in the fused shapes and in ways for them to
// fail, over every opcode, with random machine state and slices.
func randomCase(r *rand.Rand) execCase {
	word := func() int64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return int64(r.Intn(3)) - 1
		case 2:
			return 1 << 32 * int64(r.Intn(3)-1) // 0 once truncated to 32 bits
		case 3:
			return int64(r.Uint64())
		case 4:
			return int64(int32(r.Uint32()))
		default:
			return int64(r.Intn(64)) - 8
		}
	}
	binop := func() Op {
		ops := []Op{ADD, SUB, MUL, DIV, MOD, EQ, LT, GT, AND, OR, XOR, SHL, SHR}
		return ops[r.Intn(len(ops))]
	}
	c := execCase{arch: r.Intn(len(Machines)), track: r.Intn(2) == 0, literal: r.Intn(8) == 0}
	c.mem = make([]int64, r.Intn(64))
	if r.Intn(4) == 0 { // more than one dirty-tracking chunk
		c.mem = make([]int64, 1000+r.Intn(3000))
	}
	for i := range c.mem {
		c.mem[i] = word()
	}
	c.globals = make([]int64, r.Intn(6))
	for i := range c.globals {
		c.globals[i] = word()
	}
	size := 4 + r.Intn(40)
	global := func() int64 { return int64(r.Intn(len(c.globals)+2)) - 1 }
	target := func() int64 { return int64(r.Intn(size+2)) - 1 }
	for len(c.code) < size {
		switch r.Intn(10) {
		case 0:
			c.code = append(c.code, Instr{LOADG, global()}, Instr{[]Op{JZ, JNZ}[r.Intn(2)], target()})
		case 1, 2:
			c.code = append(c.code, Instr{LOADG, global()}, Instr{PUSH, word()}, Instr{Op: binop()})
			if r.Intn(2) == 0 {
				c.code = append(c.code, Instr{STOREG, global()})
			}
		case 3, 4:
			c.code = append(c.code, Instr{PUSH, word()}, Instr{Op: binop()})
			if r.Intn(2) == 0 {
				c.code = append(c.code, Instr{STOREG, global()})
			}
		default:
			in := Instr{Op: Op(r.Intn(int(opCount))), Arg: word()}
			switch in.Op {
			case LOADG, STOREG:
				in.Arg = global()
			case JMP, JZ, JNZ, CALL:
				in.Arg = target()
			case PUSH:
				if r.Intn(3) == 0 {
					in.Arg = int64(r.Intn(len(c.mem) + 8)) // an address or an alloc size
				}
			}
			if r.Intn(100) == 0 {
				in.Op = Op(opCount + Op(r.Intn(200)))
			}
			c.code = append(c.code, in)
		}
	}
	c.stack = make([]int64, r.Intn(4))
	for i := range c.stack {
		c.stack[i] = word()
	}
	c.slices = make([]int, 1+r.Intn(12))
	for i := range c.slices {
		c.slices[i] = r.Intn(9)
	}
	c.slices = append(c.slices, 200)
	return c
}

// TestRunStepsMatchesReference runs the oracle over more random cases than
// the fuzz target's seed corpus holds.
func TestRunStepsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := randomCase(r)
		if got := decodeCase(c.encode()); !reflect.DeepEqual(got.encode(), c.encode()) {
			t.Fatalf("case %d does not survive its encoding", i)
		}
		checkCase(t, c)
	}
}

// TestReplacedCodeIsRedecoded: the table is keyed on the Code slice, so a
// VM whose Code is replaced runs the new program.
func TestReplacedCodeIsRedecoded(t *testing.T) {
	m := New(Machines[5], MustAssemble("push 1\npush 2\nadd\nout\nhalt"), 0)
	if _, err := m.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	m.Code = MustAssemble("push 1\npush 2\nmul\nout\nhalt")
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(m.Output) != 1 || m.Output[0] != 2 {
		t.Errorf("output %v after replacing the code, want [2]", m.Output)
	}
}

// sumLoop is sumProgram's loop: 11 instructions from the loop head, in
// three groups (loadg 1; jz · loadg 1; push 1; sub; storeg 1) and four
// single instructions.
const sumLoop = 11

// TestTable2MatrixAtFusedCuts is Table 2's 36 checkpoint/restart pairs with
// the checkpoint cut at every offset of sumProgram's loop, so inside each of
// its fused groups, reached in uneven slices: 64-bit images restart on
// 32-bit machines and the other way round. The resumed run must end as the
// uninterrupted reference run does.
func TestTable2MatrixAtFusedCuts(t *testing.T) {
	want := newSumVM(t, Machines[0], 40)
	if _, err := want.refRunSteps(1 << 20); err != nil {
		t.Fatal(err)
	}
	for _, src := range Machines {
		for _, dst := range Machines {
			for cut := 2 + 5*sumLoop; cut < 2+7*sumLoop; cut++ {
				m := newSumVM(t, src, 40)
				for left := cut; left > 0; left -= min(left, 3) {
					if _, err := m.RunSteps(min(left, 3)); err != nil {
						t.Fatal(err)
					}
				}
				if m.Steps != uint64(cut) {
					t.Fatalf("%s: %d instructions run at the cut, want %d", src.Name, m.Steps, cut)
				}
				r, err := DecodeImage(m.EncodeImage(), dst)
				if err != nil {
					t.Fatalf("%s -> %s at %d: decode: %v", src.Name, dst.Name, cut, err)
				}
				if err := r.Run(1 << 20); err != nil {
					t.Fatalf("%s -> %s at %d: resume: %v", src.Name, dst.Name, cut, err)
				}
				if !eqSlice(r.Output, want.Output) || r.Steps != want.Steps || !eqSlice(r.Globals, want.Globals) {
					t.Errorf("%s -> %s at %d: output %v after %d steps, want %v after %d",
						src.Name, dst.Name, cut, r.Output, r.Steps, want.Output, want.Steps)
				}
			}
		}
	}
}

// TestWrap32RestartsAtFusedCuts: the heap-writer's LCG products overflow 32
// bits at every multiply, so on a 32-bit machine each fused group truncates
// intermediate values. Checkpointed at every offset of its loop on each
// 32-bit machine and restarted on each other one, it must end exactly as the
// reference interpreter's uninterrupted run on one of them.
func TestWrap32RestartsAtFusedCuts(t *testing.T) {
	const heap, inner, limit = 64, 3, 6
	want := newHeapWriter(Machines[0], heap, inner, limit)
	if _, err := want.refRunSteps(1 << 20); err != nil || !want.Halted {
		t.Fatalf("reference run: halted %v, err %v", want.Halted, err)
	}
	var narrow []Arch
	for _, a := range Machines {
		if a.WordBits == 32 {
			narrow = append(narrow, a)
		}
	}
	for _, src := range narrow {
		for _, dst := range narrow {
			for cut := 40; cut < 40+2*13*inner; cut++ {
				m := newHeapWriter(src, heap, inner, limit)
				if _, err := m.RunSteps(cut); err != nil {
					t.Fatal(err)
				}
				r, err := DecodeImage(m.EncodeImage(), dst)
				if err != nil {
					t.Fatalf("%s -> %s at %d: decode: %v", src.Name, dst.Name, cut, err)
				}
				if err := r.Run(1 << 20); err != nil {
					t.Fatalf("%s -> %s at %d: resume: %v", src.Name, dst.Name, cut, err)
				}
				if r.Steps != want.Steps || !eqSlice(r.Globals, want.Globals) || !eqSlice(r.Mem, want.Mem) {
					t.Fatalf("%s -> %s at %d: globals %v after %d steps, want %v after %d",
						src.Name, dst.Name, cut, r.Globals, r.Steps, want.Globals, want.Steps)
				}
			}
		}
	}
}

// shapeNames name the fused groups for fusionProfile.
var shapeNames = map[[2]Op]string{
	{fLoadgJz, 0}: "loadg; jz", {fLoadgJnz, 0}: "loadg; jnz",
	{fLoadgPushOp, 0}: "loadg; push; <binop>", {fLoadgPushOp, STOREG}: "loadg; push; <binop>; storeg",
	{fPushOp, 0}: "push; <binop>", {fPushOp, STOREG}: "push; <binop>; storeg",
}

// fusionProfile runs m for at most limit instructions on the reference
// interpreter and counts what the decoded loop dispatches on the way, given
// a budget that never runs out: how often each fused group runs whole, and
// how many instructions run alone. It decides whether a group runs as run
// does, from the machine's state at the group's first instruction.
func fusionProfile(m *VM, limit int) (groups map[string]int, alone, instrs int, err error) {
	groups = map[string]int{}
	code := m.program()
	inGlobals := func(i int64) bool { return i >= 0 && i < int64(len(m.Globals)) }
	for instrs < limit && !m.Halted && m.PC >= 0 && m.PC < len(code) {
		d := code[m.PC]
		fires := false
		switch d.op {
		case fLoadgJz, fLoadgJnz:
			fires = inGlobals(d.arg)
		case fLoadgPushOp, fPushOp:
			fires = (d.op == fPushOp && len(m.Stack) > 0 || d.op == fLoadgPushOp && inGlobals(d.arg)) &&
				(!d.store || inGlobals(d.h)) && (m.Arch.wrap(d.k) != 0 || d.bop != DIV && d.bop != MOD)
		}
		size := 1
		if fires {
			shape := [2]Op{d.op, 0}
			if d.store {
				shape[1] = STOREG
			}
			groups[shapeNames[shape]]++
			size = int(d.size)
		} else {
			alone++
		}
		for i := 0; i < size; i++ {
			if err = m.refStep(); err != nil {
				return
			}
		}
		instrs += size
	}
	return
}

// TestFusionProfile reports how often each fused shape fires on the VM
// programs of this package (DESIGN.md "SVM execution" has the table for
// every program in the repository), and holds the heap-writer's inner loop
// to twelve of its thirteen instructions fused.
func TestFusionProfile(t *testing.T) {
	sum := New(Machines[5], MustAssemble(sumProgram), 2)
	sum.Globals[1] = 2000
	for _, p := range []struct {
		name string
		m    *VM
		min  float64 // the share of instructions executed inside groups
	}{
		{"sumProgram", sum, 0.5},
		{"heap-writer", newHeapWriter(Machines[5], 1<<10, 3332, 3), 0.92},
	} {
		groups, alone, instrs, err := fusionProfile(p.m, 1<<30)
		if err != nil || !p.m.Halted {
			t.Fatalf("%s: halted %v, err %v", p.name, p.m.Halted, err)
		}
		fused := float64(instrs-alone) / float64(instrs)
		t.Logf("%s: %d instructions in %d dispatches, %.1f%% inside groups; groups run: %v",
			p.name, instrs, alone+sumOf(groups), 100*fused, groups)
		if fused < p.min {
			t.Errorf("%s: %.3f of the instructions inside groups, want >= %.2f", p.name, fused, p.min)
		}
	}
}

func sumOf(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
