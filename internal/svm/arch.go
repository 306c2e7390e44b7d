// Package svm implements the Starfish virtual machine — the stand-in for
// the OCaml bytecode VM on which the paper's heterogeneous checkpointing
// (§4, [2]) operates.
//
// An SVM is a small stack machine whose complete state (code, stack, call
// stack, globals, heap, program counter) can be dumped and restored. Dumps
// are written in the *native representation* of the machine taking the
// checkpoint — its endianness and word length — with a concise tag saying
// what that representation is; at restart the image is converted to the
// representation of the restoring machine. That is exactly the mechanism
// of [2], and it is what lets a computation checkpointed on a little-endian
// 32-bit machine resume on a big-endian 64-bit one (Table 2).
package svm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Endian is a serializable byte order.
type Endian uint8

// Byte orders.
const (
	LittleEndian Endian = 0
	BigEndian    Endian = 1
)

func (e Endian) String() string {
	if e == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// Arch describes a machine's data representation: the properties that make
// heterogeneous checkpoint/restart hard (Table 2 of the paper).
type Arch struct {
	// Name of the machine type, e.g. "Intel P-II 350 MHz, i686".
	Name string
	// OS is the operating system the paper tested, for documentation.
	OS string
	// Order is the machine's byte order.
	Order Endian
	// WordBits is the machine word length: 32 or 64.
	WordBits int
}

// String renders the architecture like a Table-2 row.
func (a Arch) String() string {
	return fmt.Sprintf("%s / %s (%s, %d-bit)", a.Name, a.OS, a.Order, a.WordBits)
}

// Machines lists the six machine types of Table 2, all of which the
// heterogeneous C/R path is validated against (36 checkpoint/restart
// pairs in the test suite).
var Machines = []Arch{
	{Name: "Intel P-II 350 MHz, i686", OS: "RedHat 6.1 Linux", Order: LittleEndian, WordBits: 32},
	{Name: "Sun Ultra Enterprise 3000", OS: "SunOS 5.7", Order: BigEndian, WordBits: 32},
	{Name: "RS/6000", OS: "AIX 3.2", Order: BigEndian, WordBits: 32},
	{Name: "Intel P-I, 160 MHz", OS: "FreeBSD 3.2", Order: LittleEndian, WordBits: 32},
	{Name: "Intel P-II, 350 MHz", OS: "Win NT", Order: LittleEndian, WordBits: 32},
	{Name: "Dual Alpha DS20 500 MHz", OS: "RedHat 6.2 Linux", Order: LittleEndian, WordBits: 64},
}

// ErrWordOverflow is returned when restoring a 64-bit image on a 32-bit
// machine and some value does not fit the narrower word.
var ErrWordOverflow = errors.New("svm: value does not fit target word length")

// wordBytes returns the byte width of the architecture's word.
func (a Arch) wordBytes() int { return a.WordBits / 8 }

// fits reports whether v is representable in the architecture's word.
func (a Arch) fits(v int64) bool {
	if a.WordBits == 32 {
		return v >= -1<<31 && v < 1<<31
	}
	return true
}

// putWords writes words into dst (len(words)*wordBytes bytes) in this
// architecture's native representation, chosen once per call rather than
// once per word.
func (a Arch) putWords(dst []byte, words []int64) {
	switch {
	case a.WordBits == 64 && a.Order == LittleEndian:
		for i, v := range words {
			binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
		}
	case a.WordBits == 64:
		for i, v := range words {
			binary.BigEndian.PutUint64(dst[i*8:], uint64(v))
		}
	case a.Order == LittleEndian:
		for i, v := range words {
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
		}
	default:
		for i, v := range words {
			binary.BigEndian.PutUint32(dst[i*4:], uint32(v))
		}
	}
}

// setU32 writes a 32-bit count at dst[0:4] in the architecture's byte order.
func (a Arch) setU32(dst []byte, v uint32) {
	if a.Order == LittleEndian {
		binary.LittleEndian.PutUint32(dst, v)
	} else {
		binary.BigEndian.PutUint32(dst, v)
	}
}

// getWord decodes one native word from buf, sign-extending to int64.
func (a Arch) getWord(buf []byte) (int64, error) {
	n := a.wordBytes()
	if len(buf) < n {
		return 0, errShortImage
	}
	var u uint64
	if a.Order == LittleEndian {
		for i := n - 1; i >= 0; i-- {
			u = u<<8 | uint64(buf[i])
		}
	} else {
		for i := 0; i < n; i++ {
			u = u<<8 | uint64(buf[i])
		}
	}
	if a.WordBits == 32 {
		return int64(int32(uint32(u))), nil
	}
	return int64(u), nil
}

// getU32 decodes a count written by setU32.
func (a Arch) getU32(buf []byte) (uint32, error) {
	if len(buf) < 4 {
		return 0, errShortImage
	}
	if a.Order == LittleEndian {
		return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24, nil
	}
	return uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]), nil
}
