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

	// Pads the struct to whole cache lines: Steps is written every instruction
	// and Arch read on every push, so two VMs on one line run at quarter speed.
	_ [32]byte
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
	return &VM{
		Arch:      arch,
		Code:      append([]Instr(nil), prog...),
		Stack:     alignedWords(0),
		CallStack: alignedWords(0),
		Globals:   make([]int64, nglobals),
	}
}

// Grow pre-allocates n words of heap (equivalent to executing ALLOC n and
// dropping the base). Used to size checkpoint experiments.
func (m *VM) Grow(n int) {
	m.Mem = append(m.Mem, make([]int64, n)...)
}

func (m *VM) push(v int64) { m.Stack = append(m.Stack, m.Arch.wrap(v)) }

func (m *VM) pop() (int64, error) {
	if len(m.Stack) == 0 {
		return 0, ErrStackEmpty
	}
	v := m.Stack[len(m.Stack)-1]
	m.Stack = m.Stack[:len(m.Stack)-1]
	return v, nil
}

func (m *VM) pop2() (a, b int64, err error) {
	if b, err = m.pop(); err != nil {
		return
	}
	a, err = m.pop()
	return
}

// Step executes one instruction.
func (m *VM) Step() error {
	if m.Halted {
		return ErrHalted
	}
	if m.PC < 0 || m.PC >= len(m.Code) {
		return fmt.Errorf("%w: pc=%d len=%d", ErrBadPC, m.PC, len(m.Code))
	}
	in := m.Code[m.PC]
	next := m.PC + 1
	m.Steps++

	switch in.Op {
	case NOP:
	case PUSH:
		m.push(in.Arg)
	case POP:
		if _, err := m.pop(); err != nil {
			return err
		}
	case DUP:
		if len(m.Stack) == 0 {
			return ErrStackEmpty
		}
		m.push(m.Stack[len(m.Stack)-1])
	case SWAP:
		a, b, err := m.pop2()
		if err != nil {
			return err
		}
		m.push(b)
		m.push(a)
	case ADD, SUB, MUL, DIV, MOD, EQ, LT, GT, AND, OR, XOR, SHL, SHR:
		a, b, err := m.pop2()
		if err != nil {
			return err
		}
		var v int64
		switch in.Op {
		case ADD:
			v = a + b
		case SUB:
			v = a - b
		case MUL:
			v = a * b
		case DIV:
			if b == 0 {
				return ErrDivByZero
			}
			v = a / b
		case MOD:
			if b == 0 {
				return ErrDivByZero
			}
			v = a % b
		case EQ:
			v = boolWord(a == b)
		case LT:
			v = boolWord(a < b)
		case GT:
			v = boolWord(a > b)
		case AND:
			v = a & b
		case OR:
			v = a | b
		case XOR:
			v = a ^ b
		case SHL:
			v = a << (uint64(b) % uint64(m.Arch.WordBits))
		case SHR:
			v = a >> (uint64(b) % uint64(m.Arch.WordBits))
		}
		m.push(v)
	case NEG:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.push(-v)
	case NOT:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.push(boolWord(v == 0))
	case JMP:
		next = int(in.Arg)
	case JZ, JNZ:
		v, err := m.pop()
		if err != nil {
			return err
		}
		if (in.Op == JZ) == (v == 0) {
			next = int(in.Arg)
		}
	case LOADG:
		if in.Arg < 0 || in.Arg >= int64(len(m.Globals)) {
			return fmt.Errorf("%w: %d", ErrBadGlobal, in.Arg)
		}
		m.push(m.Globals[in.Arg])
	case STOREG:
		if in.Arg < 0 || in.Arg >= int64(len(m.Globals)) {
			return fmt.Errorf("%w: %d", ErrBadGlobal, in.Arg)
		}
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.Globals[in.Arg] = v
		if m.dirty != nil {
			m.dirty.globals = true
		}
	case LOADM:
		addr, err := m.pop()
		if err != nil {
			return err
		}
		if addr < 0 || addr >= int64(len(m.Mem)) {
			return fmt.Errorf("%w: %d", ErrBadAddress, addr)
		}
		m.push(m.Mem[addr])
	case STOREM:
		v, err := m.pop()
		if err != nil {
			return err
		}
		addr, err := m.pop()
		if err != nil {
			return err
		}
		if addr < 0 || addr >= int64(len(m.Mem)) {
			return fmt.Errorf("%w: %d", ErrBadAddress, addr)
		}
		m.Mem[addr] = v
		if m.dirty != nil {
			m.dirty.markMem(int(addr))
		}
	case ALLOC:
		n, err := m.pop()
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("%w: alloc %d", ErrBadAddress, n)
		}
		base := int64(len(m.Mem))
		m.Mem = append(m.Mem, make([]int64, n)...)
		m.push(base)
	case CALL:
		if len(m.CallStack) >= maxCallDepth {
			return ErrCallDepth
		}
		m.CallStack = append(m.CallStack, int64(m.PC+1))
		next = int(in.Arg)
	case RET:
		if len(m.CallStack) == 0 {
			return ErrRetEmpty
		}
		next = int(m.CallStack[len(m.CallStack)-1])
		m.CallStack = m.CallStack[:len(m.CallStack)-1]
	case OUT:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.Output = append(m.Output, v)
	case HALT:
		m.Halted = true
		return nil
	default:
		return fmt.Errorf("svm: unknown opcode %d at pc=%d", in.Op, m.PC)
	}
	m.PC = next
	return nil
}

// Run executes until HALT or maxSteps instructions, whichever first.
func (m *VM) Run(maxSteps uint64) error {
	for i := uint64(0); i < maxSteps; i++ {
		if m.Halted {
			return nil
		}
		if err := m.Step(); err != nil {
			return err
		}
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
	for i := 0; i < n && !m.Halted; i++ {
		if err := m.Step(); err != nil {
			return false, err
		}
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
