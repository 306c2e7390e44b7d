package svm

import "fmt"

// The interpreter runs a decoded program: Code translated once per VM into
// one entry per PC. An entry is the instruction at its PC or, where one of
// these stack-machine idioms starts there, the fused group that implements
// it in one dispatch:
//
//	loadg g; jz t              loadg g; jnz t
//	loadg g; push k; <binop>   loadg g; push k; <binop>; storeg h
//	push k; <binop>            push k; <binop>; storeg h
//
// where <binop> is any two-operand instruction, add through shr. They are
// what `if x` and `x = x op k` compile to. A group runs only when all of its
// instructions fit the slice's remaining budget and none of them can fail:
// the globals it names exist, a div or mod's divisor is not zero once
// truncated to the word, and push k; <binop> has an operand under it.
// Otherwise its first instruction runs alone and the loop dispatches again
// at the next PC, whose entry is decoded the same way — so a slice that ends
// inside a group, a jump into the middle of one and an instruction that
// fails all execute exactly what the bytecode says, and Steps counts every
// instruction.

// Dispatch codes past the instruction set: the fused groups, and an opcode
// outside the instruction set.
const (
	fLoadgJz     = opCount + iota // loadg g; jz t
	fLoadgJnz                     // loadg g; jnz t
	fLoadgPushOp                  // loadg g; push k; <binop> [; storeg h]
	fPushOp                       // push k; <binop> [; storeg h]
	opBad
)

// dinstr is one entry of a decoded program.
type dinstr struct {
	op    Op    // what the loop dispatches on: the instruction's Op, a group, or opBad
	bop   Op    // a binop's own Op, a group's <binop>, or the Op of anything else
	size  uint8 // instructions the entry executes when it runs whole
	store bool  // the group ends in storeg h
	arg   int64 // the operand of the instruction at this PC
	k     int64 // a group's pushed constant, or its jz / jnz target
	h     int64 // the global a group's storeg names
}

// program is a Code slice decoded, and the slice it was decoded from.
type program struct {
	src *Instr
	ins []dinstr
}

func isBinop(o Op) bool {
	switch o {
	case ADD, SUB, MUL, DIV, MOD, EQ, LT, GT, AND, OR, XOR, SHL, SHR:
		return true
	}
	return false
}

// decode builds the table of code: every PC's entry, the longest group that
// starts there or else the instruction itself.
func decode(code []Instr) *program {
	p := &program{ins: make([]dinstr, len(code))}
	if len(code) > 0 {
		p.src = &code[0]
	}
	at := func(i int) Op { // the Op at i, opBad past the end
		if i < len(code) {
			return code[i].Op
		}
		return opBad
	}
	for i, in := range code {
		d := dinstr{op: in.Op, bop: in.Op, size: 1, arg: in.Arg}
		switch {
		case in.Op >= opCount:
			d.op = opBad
		case in.Op == LOADG && (at(i+1) == JZ || at(i+1) == JNZ):
			d.op, d.size, d.k = fLoadgJz, 2, code[i+1].Arg
			if at(i+1) == JNZ {
				d.op = fLoadgJnz
			}
		case in.Op == LOADG && at(i+1) == PUSH && isBinop(at(i+2)):
			d.op, d.bop, d.size, d.k = fLoadgPushOp, at(i+2), 3, code[i+1].Arg
		case in.Op == PUSH && isBinop(at(i+1)):
			d.op, d.bop, d.size, d.k = fPushOp, at(i+1), 2, in.Arg
		}
		if (d.op == fLoadgPushOp || d.op == fPushOp) && at(i+int(d.size)) == STOREG {
			d.store, d.h = true, code[i+int(d.size)].Arg
			d.size++
		}
		p.ins[i] = d
	}
	return p
}

// program returns m's decoded program, decoding Code again if it is not the
// slice the table was built from (a VM built as a struct literal, or one
// whose Code was replaced).
func (m *VM) program() []dinstr {
	p := m.prog
	if p == nil || len(p.ins) != len(m.Code) || len(m.Code) > 0 && p.src != &m.Code[0] {
		p = decode(m.Code)
		m.prog = p
	}
	return p.ins
}

// run executes at most n > 0 instructions of code, m's decoded program, on a
// machine whose word is W: every value pushed or stored by an arithmetic
// instruction is truncated to it, int64(W(v)), which on a 64-bit machine is
// no operation. PC, Steps and the stack live in locals and go back to m once,
// on the way out: the error exits included, with the failing instruction
// counted and the stack as far as it had popped.
func run[W int32 | int64](m *VM, code []dinstr, n int) (err error) {
	pc, steps, st, g, dirty := m.PC, m.Steps, m.Stack, m.Globals, m.dirty
	wbits := uint64(m.Arch.WordBits)
	for n > 0 {
		if uint(pc) >= uint(len(code)) {
			m.PC, m.Steps, m.Stack = pc, steps, st
			return fmt.Errorf("%w: pc=%d len=%d", ErrBadPC, pc, len(code))
		}
		d := &code[pc]
		op := d.op
		var a, b int64 // a binop's operands, for the tail after the switch
	dispatch:
		switch op {
		case fLoadgJz, fLoadgJnz:
			if n < 2 || uint64(d.arg) >= uint64(len(g)) {
				op = LOADG
				goto dispatch
			}
			pc, steps, n = pc+2, steps+2, n-2
			if (op == fLoadgJz) == (W(g[d.arg]) == 0) {
				pc = int(d.k)
			}
			continue
		case fLoadgPushOp:
			if n < int(d.size) || uint64(d.arg) >= uint64(len(g)) ||
				d.store && uint64(d.h) >= uint64(len(g)) || W(d.k) == 0 && (d.bop == DIV || d.bop == MOD) {
				op = LOADG
				goto dispatch
			}
			a, b = int64(W(g[d.arg])), int64(W(d.k))
		case fPushOp:
			if n < int(d.size) || len(st) == 0 ||
				d.store && uint64(d.h) >= uint64(len(g)) || W(d.k) == 0 && (d.bop == DIV || d.bop == MOD) {
				op = PUSH
				goto dispatch
			}
			a, b = st[len(st)-1], int64(W(d.k))
			st = st[:len(st)-1]
		case ADD, SUB, MUL, DIV, MOD, EQ, LT, GT, AND, OR, XOR, SHL, SHR:
			if len(st) < 2 {
				st, err = st[:0], ErrStackEmpty
				goto fail
			}
			a, b = st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-2]
			if b == 0 && (op == DIV || op == MOD) {
				err = ErrDivByZero
				goto fail
			}

		case NOP:
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case PUSH:
			st = append(st, int64(W(d.arg)))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case POP:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			st = st[:len(st)-1]
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case DUP:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			st = append(st, int64(W(st[len(st)-1])))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case SWAP:
			if len(st) < 2 {
				st, err = st[:0], ErrStackEmpty
				goto fail
			}
			t := len(st) - 1
			st[t-1], st[t] = int64(W(st[t])), int64(W(st[t-1]))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case NEG, NOT:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			t := len(st) - 1
			if op == NEG {
				st[t] = int64(W(-st[t]))
			} else {
				st[t] = boolWord(st[t] == 0)
			}
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case JMP:
			pc, steps, n = int(d.arg), steps+1, n-1
			continue
		case JZ, JNZ:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			v := st[len(st)-1]
			st = st[:len(st)-1]
			steps, n = steps+1, n-1
			if (op == JZ) == (v == 0) {
				pc = int(d.arg)
			} else {
				pc++
			}
			continue
		case LOADG:
			if uint64(d.arg) >= uint64(len(g)) {
				err = fmt.Errorf("%w: %d", ErrBadGlobal, d.arg)
				goto fail
			}
			st = append(st, int64(W(g[d.arg])))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case STOREG:
			if uint64(d.arg) >= uint64(len(g)) {
				err = fmt.Errorf("%w: %d", ErrBadGlobal, d.arg)
				goto fail
			}
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			g[d.arg] = st[len(st)-1]
			st = st[:len(st)-1]
			if dirty != nil {
				dirty.globals = true
			}
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case LOADM:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			t := len(st) - 1
			if addr := st[t]; uint64(addr) >= uint64(len(m.Mem)) {
				st, err = st[:t], fmt.Errorf("%w: %d", ErrBadAddress, addr)
				goto fail
			}
			st[t] = int64(W(m.Mem[st[t]]))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case STOREM:
			if len(st) < 2 {
				st, err = st[:0], ErrStackEmpty
				goto fail
			}
			addr, v := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-2]
			if uint64(addr) >= uint64(len(m.Mem)) {
				err = fmt.Errorf("%w: %d", ErrBadAddress, addr)
				goto fail
			}
			m.Mem[addr] = v
			if dirty != nil {
				dirty.markMem(int(addr))
			}
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case ALLOC:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			t := len(st) - 1
			if words := st[t]; words < 0 {
				st, err = st[:t], fmt.Errorf("%w: alloc %d", ErrBadAddress, words)
				goto fail
			}
			base := int64(len(m.Mem))
			m.Mem = append(m.Mem, make([]int64, st[t])...)
			st[t] = int64(W(base))
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case CALL:
			if len(m.CallStack) >= maxCallDepth {
				err = ErrCallDepth
				goto fail
			}
			m.CallStack = append(m.CallStack, int64(pc+1))
			pc, steps, n = int(d.arg), steps+1, n-1
			continue
		case RET:
			if len(m.CallStack) == 0 {
				err = ErrRetEmpty
				goto fail
			}
			t := len(m.CallStack) - 1
			pc, steps, n = int(m.CallStack[t]), steps+1, n-1
			m.CallStack = m.CallStack[:t]
			continue
		case OUT:
			if len(st) == 0 {
				err = ErrStackEmpty
				goto fail
			}
			m.Output = append(m.Output, st[len(st)-1])
			st = st[:len(st)-1]
			pc, steps, n = pc+1, steps+1, n-1
			continue
		case HALT:
			m.Halted = true
			m.PC, m.Steps, m.Stack = pc, steps+1, st
			return nil
		default: // opBad
			err = fmt.Errorf("svm: unknown opcode %d at pc=%d", d.bop, pc)
			goto fail
		}

		// The binop's tail, alone or ending a group: its value, truncated to
		// the word, goes to the stack or to global h.
		var v int64
		switch d.bop {
		case ADD:
			v = a + b
		case SUB:
			v = a - b
		case MUL:
			v = a * b
		case DIV:
			v = a / b
		case MOD:
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
			v = a << (uint64(b) % wbits)
		case SHR:
			v = a >> (uint64(b) % wbits)
		}
		if v = int64(W(v)); d.store {
			g[d.h] = v
			if dirty != nil {
				dirty.globals = true
			}
		} else {
			st = append(st, v)
		}
		size := int(d.size)
		pc, steps, n = pc+size, steps+uint64(size), n-size
	}
	m.PC, m.Steps, m.Stack = pc, steps, st
	return nil

fail: // the instruction at pc failed, counted as the reference interpreter counts it
	m.PC, m.Steps, m.Stack = pc, steps+1, st
	return err
}
