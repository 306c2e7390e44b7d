package svm

import (
	"errors"
	"fmt"
	"unsafe"
)

// Op is a bytecode opcode.
type Op uint8

// The SVM instruction set: a conventional stack machine with globals, a
// growable heap, calls, and an output stream for observable effects.
const (
	NOP    Op = iota
	PUSH      // push operand
	POP       // discard top
	DUP       // duplicate top
	SWAP      // swap top two
	ADD       // pop b, a; push a+b
	SUB       // pop b, a; push a-b
	MUL       // pop b, a; push a*b
	DIV       // pop b, a; push a/b (error on b==0)
	MOD       // pop b, a; push a%b (error on b==0)
	NEG       // negate top
	EQ        // pop b, a; push a==b (1/0)
	LT        // pop b, a; push a<b
	GT        // pop b, a; push a>b
	NOT       // logical not of top
	JMP       // jump to operand
	JZ        // pop v; jump to operand if v==0
	JNZ       // pop v; jump to operand if v!=0
	LOADG     // push globals[operand]
	STOREG    // pop v; globals[operand]=v
	LOADM     // pop addr; push mem[addr]
	STOREM    // pop v, addr; mem[addr]=v
	ALLOC     // pop n; grow memory by n zero words; push old size (base)
	CALL      // push pc+1 on call stack; jump to operand
	RET       // pop return address from call stack
	OUT       // pop v; append to output stream
	HALT      // stop
	AND       // pop b, a; push a & b
	OR        // pop b, a; push a | b
	XOR       // pop b, a; push a ^ b
	SHL       // pop b, a; push a << (b mod word bits)
	SHR       // pop b, a; push a >> (b mod word bits), arithmetic

	opCount
)

var opNames = [...]string{
	NOP: "nop", PUSH: "push", POP: "pop", DUP: "dup", SWAP: "swap",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod", NEG: "neg",
	EQ: "eq", LT: "lt", GT: "gt", NOT: "not",
	JMP: "jmp", JZ: "jz", JNZ: "jnz",
	LOADG: "loadg", STOREG: "storeg", LOADM: "loadm", STOREM: "storem",
	ALLOC: "alloc", CALL: "call", RET: "ret", OUT: "out", HALT: "halt",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// hasOperand reports whether the opcode takes an immediate operand.
func (o Op) hasOperand() bool {
	switch o {
	case PUSH, JMP, JZ, JNZ, LOADG, STOREG, CALL:
		return true
	}
	return false
}

// Instr is one bytecode instruction.
type Instr struct {
	Op  Op
	Arg int64
}

func (i Instr) String() string {
	if i.Op.hasOperand() {
		return fmt.Sprintf("%s %d", i.Op, i.Arg)
	}
	return i.Op.String()
}

// Execution errors.
var (
	ErrHalted        = errors.New("svm: machine is halted")
	ErrStackEmpty    = errors.New("svm: stack underflow")
	ErrBadPC         = errors.New("svm: program counter out of range")
	ErrBadAddress    = errors.New("svm: memory address out of range")
	ErrBadGlobal     = errors.New("svm: global index out of range")
	ErrDivByZero     = errors.New("svm: division by zero")
	ErrCallDepth     = errors.New("svm: call stack overflow")
	ErrRetEmpty      = errors.New("svm: return with empty call stack")
	ErrStepLimit     = errors.New("svm: step limit exceeded")
	errShortImage    = errors.New("svm: truncated image")
	ErrBadImage      = errors.New("svm: malformed image")
	ErrArchMismatch  = errors.New("svm: image architecture does not match machine")
	ErrNotHalted     = errors.New("svm: program has not halted")
	ErrBadInstrImage = errors.New("svm: image contains invalid instruction")
)

// maxCallDepth bounds recursion so runaway programs fail fast.
const maxCallDepth = 1 << 16

// VM is one Starfish virtual machine instance, executing on a simulated
// architecture. All arithmetic wraps at the architecture's word length, so
// a program behaves identically before a checkpoint on machine A and after
// restart on machine B (provided its values fit B's words).
type VM struct {
	Arch Arch

	// Code is the program. It is immutable once the VM is built: the
	// interpreter runs a table decoded from it (exec.go), and re-decodes
	// only when Code is replaced by another slice.
	Code      []Instr
	PC        int
	Stack     []int64
	CallStack []int64
	Globals   []int64
	Mem       []int64
	Output    []int64
	Steps     uint64
	Halted    bool

	// dirty, when non-nil, tracks writes since the last ResetDirty for
	// incremental checkpointing (see dirty.go). Deliberately unexported and
	// outside the image: a restored VM starts untracked.
	dirty *dirtyState
	// prog is Code decoded for the interpreter, outside the image like dirty.
	prog *program

	// Pads the struct to whole cache lines, so that no two VMs share one: the
	// interpreter writes PC, Steps and the stack header back once per
	// RunSteps slice, and the call stack, heap and output headers on every
	// call, ret, alloc and out. The stacks' backing arrays, which nearly every
	// instruction writes, have lines of their own (alignedWords).
	_ [24]byte
}

// alignedWords returns n words in a backing array of at least 64 that starts
// on a 64-byte cache-line boundary. Every instruction rewrites the stacks; grown
// from nil through append they are 8- to 32-byte objects, several VMs' to a line.
func alignedWords(n int) []int64 {
	c := max(n, 64)
	buf := make([]int64, c+7)
	skip := (-int(uintptr(unsafe.Pointer(&buf[0]))) & 63) / 8
	return buf[skip : skip+n : skip+c]
}

// New creates a VM for prog with nglobals global slots, running on arch.
func New(arch Arch, prog []Instr, nglobals int) *VM {
	m := &VM{
		Arch:      arch,
		Code:      append([]Instr(nil), prog...),
		Stack:     alignedWords(0),
		CallStack: alignedWords(0),
		Globals:   make([]int64, nglobals),
	}
	m.prog = decode(m.Code)
	return m
}

// Grow pre-allocates n words of heap (equivalent to executing ALLOC n and
// dropping the base). Used to size checkpoint experiments.
func (m *VM) Grow(n int) {
	m.Mem = append(m.Mem, make([]int64, n)...)
}

// Step executes one instruction.
func (m *VM) Step() error {
	if m.Halted {
		return ErrHalted
	}
	_, err := m.RunSteps(1)
	return err
}

// Run executes until HALT or maxSteps instructions, whichever first.
func (m *VM) Run(maxSteps uint64) error {
	for maxSteps > 0 {
		n := min(maxSteps, 1<<30)
		if halted, err := m.RunSteps(int(n)); halted || err != nil {
			return err
		}
		maxSteps -= n
	}
	if m.Halted {
		return nil
	}
	return ErrStepLimit
}

// RunSteps executes at most n instructions and reports whether the machine
// halted. It is the unit of interleaving between computation and the
// Starfish runtime (checkpoints are taken between RunSteps slices).
func (m *VM) RunSteps(n int) (halted bool, err error) {
	if m.Halted || n <= 0 {
		return m.Halted, nil
	}
	if m.Arch.WordBits == 32 {
		err = run[int32](m, m.program(), n)
	} else {
		err = run[int64](m, m.program(), n)
	}
	if err != nil {
		return false, err
	}
	return m.Halted, nil
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Equal reports whether two machines have identical observable state
// (ignoring the simulated architecture). Used to verify that checkpoint →
// convert → restore → resume produces the same computation.
func (m *VM) Equal(o *VM) bool {
	if m.PC != o.PC || m.Halted != o.Halted || m.Steps != o.Steps {
		return false
	}
	if !eqSlice(m.Stack, o.Stack) || !eqSlice(m.CallStack, o.CallStack) ||
		!eqSlice(m.Globals, o.Globals) || !eqSlice(m.Mem, o.Mem) ||
		!eqSlice(m.Output, o.Output) {
		return false
	}
	if len(m.Code) != len(o.Code) {
		return false
	}
	for i := range m.Code {
		if m.Code[i] != o.Code[i] {
			return false
		}
	}
	return true
}

func eqSlice(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
