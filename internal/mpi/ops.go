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

// Each builtin operator has one body: a word kernel that folds sw into dw
// (dw[i] = op(dw[i], sw[i])) over the little-endian 64-bit words of two
// equally long buffers. Its loop is a direct machine operation per word — a
// call through an operator value per element would dominate large
// reductions (a 1 MiB SumInt64 is 131072 words per merge). The collectives
// run the kernel in place on an accumulator they own (combineInto), which is
// what makes large reductions run at copy speed; the exported allocating
// ReduceFunc is the same kernel run on a clone of its first argument.
type wordKernel func(dw, sw []uint64)

func sumInt64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] += sw[i]
	}
}

func minInt64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = uint64(min(int64(dw[i]), int64(sw[i])))
	}
}

func maxInt64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = uint64(max(int64(dw[i]), int64(sw[i])))
	}
}

func prodInt64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = uint64(int64(dw[i]) * int64(sw[i]))
	}
}

func sumFloat64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = math.Float64bits(math.Float64frombits(dw[i]) + math.Float64frombits(sw[i]))
	}
}

func minFloat64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = math.Float64bits(math.Min(math.Float64frombits(dw[i]), math.Float64frombits(sw[i])))
	}
}

func maxFloat64Words(dw, sw []uint64) {
	for i := range dw {
		dw[i] = math.Float64bits(math.Max(math.Float64frombits(dw[i]), math.Float64frombits(sw[i])))
	}
}

// The builtin operators are named top-level functions (not closures from a
// shared factory) so each ReduceFunc value has a distinct code pointer —
// that pointer is the key under which combineInto finds its kernel.

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
// everywhere: combineInto falls back to calling it and copying the result.
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

// reduceClone is the allocating form of a builtin: k folds b into a copy
// of a.
func reduceClone(a, b []byte, k wordKernel) ([]byte, error) {
	out := make([]byte, len(a))
	copy(out, a)
	if err := reduceWords(out, b, k); err != nil {
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
func wordViews(dst, src []byte) (dw, sw []uint64, ok bool, err error) {
	if len(dst) != len(src) {
		return nil, nil, false, fmt.Errorf("%w: %d vs %d bytes", ErrBadLength, len(dst), len(src))
	}
	if len(dst)%8 != 0 {
		return nil, nil, false, fmt.Errorf("%w: %d bytes", ErrBadLength, len(dst))
	}
	if len(dst) == 0 {
		return nil, nil, false, nil
	}
	if !nativeLE ||
		uintptr(unsafe.Pointer(&dst[0]))%8 != 0 || uintptr(unsafe.Pointer(&src[0]))%8 != 0 {
		return nil, nil, false, nil
	}
	dw = unsafe.Slice((*uint64)(unsafe.Pointer(&dst[0])), len(dst)/8)
	sw = unsafe.Slice((*uint64)(unsafe.Pointer(&src[0])), len(src)/8)
	return dw, sw, true, nil
}

// reduceWords folds src into dst (dst = op(dst, src)) with k: directly on
// the buffers when wordViews allows, otherwise through a pair of small word
// arrays decoded from, and encoded back to, the little-endian bytes.
func reduceWords(dst, src []byte, k wordKernel) error {
	dw, sw, ok, err := wordViews(dst, src)
	if err != nil {
		return err
	}
	if ok {
		k(dw, sw)
		return nil
	}
	var db, sb [64]uint64
	for len(dst) > 0 {
		n := min(len(db), len(dst)/8)
		for i := 0; i < n; i++ {
			db[i] = binary.LittleEndian.Uint64(dst[8*i:])
			sb[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
		k(db[:n], sb[:n])
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(dst[8*i:], db[i])
		}
		dst, src = dst[8*n:], src[8*n:]
	}
	return nil
}

// combineInto folds src into dst (dst = fn(dst, src)) with fn's word kernel
// when it is a builtin, falling back to the allocating fn and a copy-back
// otherwise. dst must be an accumulator the collective owns —
// never a caller's contribution buffer.
func combineInto(dst, src []byte, fn ReduceFunc) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: %d vs %d bytes", ErrBadLength, len(dst), len(src))
	}
	if len(dst) == 0 {
		return nil
	}
	if k, ok := builtinKernels[codePtr(fn)]; ok {
		return reduceWords(dst, src, k)
	}
	out, err := fn(dst, src)
	if err != nil {
		return err
	}
	if len(out) != len(dst) {
		return fmt.Errorf("%w: reduce returned %d bytes for %d", ErrBadLength, len(out), len(dst))
	}
	copy(dst, out)
	return nil
}
