package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Typed buffer helpers and reduction operators. MPI couples datatypes with
// operations; here buffers are raw bytes and these helpers provide the
// common numeric datatypes (64-bit integers and IEEE floats) plus the
// standard operators over them.

// Int64Bytes encodes vs little-endian for transport.
func Int64Bytes(vs []int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// BytesInt64 decodes a buffer produced by Int64Bytes.
func BytesInt64(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadLength, len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Float64Bytes encodes vs for transport.
func Float64Bytes(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesFloat64 decodes a buffer produced by Float64Bytes.
func BytesFloat64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadLength, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Each builtin operator has one body: a word kernel that combines aw and bw
// into dw (dw[i] = op(aw[i], bw[i])) over the little-endian 64-bit words of
// equally long buffers; dw may be aw itself. Its loop is a direct machine
// operation per word — a call through an operator value per element would
// dominate large reductions (a 1 MiB SumInt64 is 131072 words per merge).
// The collectives run the kernel straight into the buffer the next step
// reads (combineTo), so a combined byte is written once and never copied
// first; the exported allocating ReduceFunc is the same kernel run into a
// fresh buffer. Each kernel first reslices aw and bw to len(dw), which lets
// the compiler drop the loop's bounds checks.
type wordKernel func(dw, aw, bw []uint64)

func sumInt64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = aw[i] + bw[i]
	}
}

func minInt64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = uint64(min(int64(aw[i]), int64(bw[i])))
	}
}

func maxInt64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = uint64(max(int64(aw[i]), int64(bw[i])))
	}
}

func prodInt64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = uint64(int64(aw[i]) * int64(bw[i]))
	}
}

func sumFloat64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = math.Float64bits(math.Float64frombits(aw[i]) + math.Float64frombits(bw[i]))
	}
}

func minFloat64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = math.Float64bits(math.Min(math.Float64frombits(aw[i]), math.Float64frombits(bw[i])))
	}
}

func maxFloat64Words(dw, aw, bw []uint64) {
	aw, bw = aw[:len(dw)], bw[:len(dw)]
	for i := range dw {
		dw[i] = math.Float64bits(math.Max(math.Float64frombits(aw[i]), math.Float64frombits(bw[i])))
	}
}

// The builtin operators are named top-level functions (not closures from a
// shared factory) so each ReduceFunc value has a distinct code pointer —
// that pointer is the key under which combineTo finds its kernel.

func sumInt64Fn(a, b []byte) ([]byte, error)   { return reduceClone(a, b, sumInt64Words) }
func minInt64Fn(a, b []byte) ([]byte, error)   { return reduceClone(a, b, minInt64Words) }
func maxInt64Fn(a, b []byte) ([]byte, error)   { return reduceClone(a, b, maxInt64Words) }
func prodInt64Fn(a, b []byte) ([]byte, error)  { return reduceClone(a, b, prodInt64Words) }
func sumFloat64Fn(a, b []byte) ([]byte, error) { return reduceClone(a, b, sumFloat64Words) }
func minFloat64Fn(a, b []byte) ([]byte, error) { return reduceClone(a, b, minFloat64Words) }
func maxFloat64Fn(a, b []byte) ([]byte, error) { return reduceClone(a, b, maxFloat64Words) }

// Elementwise reduction operators (MPI_SUM, MPI_MIN, MPI_MAX, MPI_PROD).
var (
	SumInt64  ReduceFunc = sumInt64Fn
	MinInt64  ReduceFunc = minInt64Fn
	MaxInt64  ReduceFunc = maxInt64Fn
	ProdInt64 ReduceFunc = prodInt64Fn

	SumFloat64 ReduceFunc = sumFloat64Fn
	MinFloat64 ReduceFunc = minFloat64Fn
	MaxFloat64 ReduceFunc = maxFloat64Fn
)

// builtinKernels finds a builtin operator's kernel from its ReduceFunc. An
// operator that is not in it (any the application defines) still works
// everywhere: combineTo falls back to calling it and copying the result.
var builtinKernels = map[uintptr]wordKernel{
	codePtr(sumInt64Fn):   sumInt64Words,
	codePtr(minInt64Fn):   minInt64Words,
	codePtr(maxInt64Fn):   maxInt64Words,
	codePtr(prodInt64Fn):  prodInt64Words,
	codePtr(sumFloat64Fn): sumFloat64Words,
	codePtr(minFloat64Fn): minFloat64Words,
	codePtr(maxFloat64Fn): maxFloat64Words,
}

func codePtr(fn ReduceFunc) uintptr { return reflect.ValueOf(fn).Pointer() }

// reduceClone is the allocating form of a builtin: k combines a and b
// into a new buffer.
func reduceClone(a, b []byte, k wordKernel) ([]byte, error) {
	out := make([]byte, len(a))
	if err := reduceWords(out, a, b, k); err != nil {
		return nil, err
	}
	return out, nil
}

// nativeLE reports whether the machine is little-endian, i.e. whether a
// []uint64 view over a buffer reads the wire encoding directly.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordViews checks the kernels' contract (equal lengths, whole words) and,
// on little-endian machines with word-aligned buffers (pool and heap
// allocations always are; only odd sub-slicing breaks it), returns []uint64
// views over the buffers themselves. ok=false means decode the words with
// encoding/binary instead.
func wordViews(dst, a, b []byte) (dw, aw, bw []uint64, ok bool, err error) {
	if len(a) != len(dst) || len(b) != len(dst) {
		return nil, nil, nil, false, fmt.Errorf("%w: %d, %d and %d bytes", ErrBadLength, len(dst), len(a), len(b))
	}
	if len(dst)%8 != 0 {
		return nil, nil, nil, false, fmt.Errorf("%w: %d bytes", ErrBadLength, len(dst))
	}
	if len(dst) == 0 || !nativeLE || !wordAligned(dst) || !wordAligned(a) || !wordAligned(b) {
		return nil, nil, nil, false, nil
	}
	return words(dst), words(a), words(b), true, nil
}

func wordAligned(b []byte) bool { return uintptr(unsafe.Pointer(&b[0]))%8 == 0 }

func words(b []byte) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8) }

// reduceWords writes op(a, b) into dst with k: directly on the buffers when
// wordViews allows, otherwise through two small word arrays decoded from a
// and b and encoded into dst. dst may be a itself.
func reduceWords(dst, a, b []byte, k wordKernel) error {
	dw, aw, bw, ok, err := wordViews(dst, a, b)
	if err != nil {
		return err
	}
	if ok {
		k(dw, aw, bw)
		return nil
	}
	var ab, bb [64]uint64
	for len(dst) > 0 {
		n := min(len(ab), len(dst)/8)
		for i := 0; i < n; i++ {
			ab[i] = binary.LittleEndian.Uint64(a[8*i:])
			bb[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		k(ab[:n], ab[:n], bb[:n])
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(dst[8*i:], ab[i])
		}
		dst, a, b = dst[8*n:], a[8*n:], b[8*n:]
	}
	return nil
}

// combineTo writes fn(a, b) into dst: with fn's word kernel when it is a
// builtin, otherwise by calling fn(a, b) — the collectives pass their own
// partial as a and the peer's as b, in that order — and copying its result
// in. dst may be a itself (an in-place fold) but must not otherwise overlap
// a or b, and must be a buffer the collective owns — never a caller's
// contribution.
func combineTo(dst, a, b []byte, fn ReduceFunc) error {
	if len(a) != len(dst) || len(b) != len(dst) {
		return fmt.Errorf("%w: %d, %d and %d bytes", ErrBadLength, len(dst), len(a), len(b))
	}
	if len(dst) == 0 {
		return nil
	}
	if k, ok := builtinKernels[codePtr(fn)]; ok {
		return reduceWords(dst, a, b, k)
	}
	out, err := fn(a, b)
	if err != nil {
		return err
	}
	if len(out) != len(dst) {
		return fmt.Errorf("%w: reduce returned %d bytes for %d", ErrBadLength, len(out), len(dst))
	}
	copy(dst, out)
	return nil
}
