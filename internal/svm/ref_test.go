package svm

import "fmt"

// The per-instruction interpreter the decoded loop replaced, kept as the
// reference the loop must match field for field after every slice
// (FuzzRunSteps) and as the ref rows of BenchmarkRunSteps. One Step call per
// instruction: it re-checks Halted and the PC, writes Steps, PC and the stack
// back to the VM and wraps every pushed value.

// wrap truncates v to the architecture's word length (two's complement),
// modelling native word arithmetic.
func (a Arch) wrap(v int64) int64 {
	if a.WordBits == 32 {
		return int64(int32(v))
	}
	return v
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

// refStep executes one instruction.
func (m *VM) refStep() error {
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

// refRunSteps is RunSteps over refStep.
func (m *VM) refRunSteps(n int) (halted bool, err error) {
	for i := 0; i < n && !m.Halted; i++ {
		if err := m.refStep(); err != nil {
			return false, err
		}
	}
	return m.Halted, nil
}
