package svm

import (
	"bytes"
	"math/rand"
	"testing"
)

// The word-at-a-time encoder EncodeImage replaced, kept as the reference
// the bulk encoder must match byte for byte.

// putWord appends v in this architecture's native representation.
func (a Arch) putWord(buf []byte, v int64) []byte {
	n := a.wordBytes()
	var tmp [8]byte
	u := uint64(v)
	if a.Order == LittleEndian {
		for i := 0; i < n; i++ {
			tmp[i] = byte(u >> (8 * i))
		}
	} else {
		for i := 0; i < n; i++ {
			tmp[n-1-i] = byte(u >> (8 * i))
		}
	}
	return append(buf, tmp[:n]...)
}

// putU32 appends a 32-bit count in the architecture's byte order.
func (a Arch) putU32(buf []byte, v uint32) []byte {
	if a.Order == LittleEndian {
		return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func encodeImageRef(m *VM) []byte {
	a := m.Arch
	buf := append([]byte(nil), imageMagic[:]...)
	buf = append(buf, byte(a.Order), byte(a.WordBits), 0)
	buf = a.putU32(buf, uint32(m.PC))
	buf = a.putU32(buf, uint32(m.Steps>>32))
	buf = a.putU32(buf, uint32(m.Steps))
	buf = a.putU32(buf, uint32(boolWord(m.Halted)))
	buf = a.putU32(buf, uint32(len(m.Code)))
	for _, in := range m.Code {
		buf = append(buf, byte(in.Op))
		buf = a.putWord(buf, in.Arg)
	}
	for _, sec := range [][]int64{m.Stack, m.CallStack, m.Globals, m.Mem, m.Output} {
		buf = a.putU32(buf, uint32(len(sec)))
		for _, v := range sec {
			buf = a.putWord(buf, v)
		}
	}
	return buf
}

// TestEncodeImageGolden: for all six machines the bulk encoder's image is
// the reference encoder's, on random machines whose values use the full
// 64-bit range (a 32-bit architecture truncates them the same way in both)
// and on machines with empty sections.
func TestEncodeImageGolden(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, arch := range Machines {
		for i := 0; i < 50; i++ {
			m := randomVM(r, arch)
			for j := range m.Mem {
				m.Mem[j] = int64(r.Uint64())
			}
			m.Steps = r.Uint64()
			if i%10 == 0 {
				m.Stack, m.CallStack, m.Output = nil, nil, nil
			}
			if got, want := m.EncodeImage(), encodeImageRef(m); !bytes.Equal(got, want) {
				t.Fatalf("%s: bulk image differs from the reference (%d vs %d bytes)", arch, len(got), len(want))
			}
		}
	}
}
