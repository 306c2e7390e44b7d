package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestBuiltinKernels: for every builtin operator, the derived allocating form
// and combineTo — into a distinct dst and in place (dst is a), on
// word-aligned buffers and on buffers sub-sliced 1–7 bytes off alignment,
// each operand at its own offset so the byte-decoding loop runs with dst
// aligned differently from a and b — agree bit for bit with the scalar
// definition and leave their inputs alone.
func TestBuiltinKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f, fb := math.Float64frombits, math.Float64bits
	// at copies b to a fresh buffer starting off bytes past word alignment.
	at := func(b []byte, off int) []byte { return append(make([]byte, off, off+len(b)), b...)[off:] }
	for _, op := range []struct {
		name string
		fn   ReduceFunc
		spec func(a, b uint64) uint64
	}{
		{"sum-int64", SumInt64, func(a, b uint64) uint64 { return a + b }},
		{"min-int64", MinInt64, func(a, b uint64) uint64 { return uint64(min(int64(a), int64(b))) }},
		{"max-int64", MaxInt64, func(a, b uint64) uint64 { return uint64(max(int64(a), int64(b))) }},
		{"prod-int64", ProdInt64, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) }},
		{"sum-float64", SumFloat64, func(a, b uint64) uint64 { return fb(f(a) + f(b)) }},
		{"min-float64", MinFloat64, func(a, b uint64) uint64 { return fb(math.Min(f(a), f(b))) }},
		{"max-float64", MaxFloat64, func(a, b uint64) uint64 { return fb(math.Max(f(a), f(b))) }},
	} {
		for _, elems := range []int{0, 1, 64, 65, 200} {
			// Finite floats: valid operands for both element types.
			as, bs := make([]float64, elems), make([]float64, elems)
			for i := range as {
				as[i], bs[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			a, b := Float64Bytes(as), Float64Bytes(bs)
			want := make([]byte, len(a))
			for i := 0; i < len(a); i += 8 {
				binary.LittleEndian.PutUint64(want[i:], op.spec(binary.LittleEndian.Uint64(a[i:]), binary.LittleEndian.Uint64(b[i:])))
			}
			if got, err := op.fn(a, b); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s elems=%d: allocating form differs from the spec (err %v)", op.name, elems, err)
			}
			// All aligned (the word views), then a at off, b at off+3 and
			// dst at off+5 (mod 8): every operand takes every offset, never
			// the same one as another.
			offsets := [][3]int{{0, 0, 0}}
			for off := 0; off < 8; off++ {
				offsets = append(offsets, [3]int{off, (off + 3) % 8, (off + 5) % 8})
			}
			for _, o := range offsets {
				ao, bo, do := at(a, o[0]), at(b, o[1]), at(make([]byte, len(a)), o[2])
				if err := combineTo(do, ao, bo, op.fn); err != nil || !bytes.Equal(do, want) || !bytes.Equal(ao, a) || !bytes.Equal(bo, b) {
					t.Errorf("%s elems=%d offsets a/b/dst=%v: combineTo differs from the spec (err %v)", op.name, elems, o, err)
				}
				if err := combineTo(ao, ao, bo, op.fn); err != nil || !bytes.Equal(ao, want) || !bytes.Equal(bo, b) {
					t.Errorf("%s elems=%d offsets a/b=%v: in-place combineTo differs from the spec (err %v)", op.name, elems, o[:2], err)
				}
			}
		}
	}
}

// TestCombineToUserOperator: an operator without a word kernel is called as
// fn(own, peer) — a non-commutative one pins the order — and its result
// lands in dst, distinct or in place; a result of the wrong length is
// ErrBadLength.
func TestCombineToUserOperator(t *testing.T) {
	sub := func(a, b []byte) ([]byte, error) {
		as, _ := BytesInt64(a)
		bs, _ := BytesInt64(b)
		for i := range as {
			as[i] -= bs[i]
		}
		return Int64Bytes(as), nil
	}
	own, peer := Int64Bytes([]int64{10, 20, -3}), Int64Bytes([]int64{1, 2, 3})
	want := Int64Bytes([]int64{9, 18, -6})
	dst := make([]byte, len(own))
	if err := combineTo(dst, own, peer, sub); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("combineTo(dst, own, peer) = %v (err %v), want own-peer %v", dst, err, want)
	}
	if err := combineTo(own, own, peer, sub); err != nil || !bytes.Equal(own, want) {
		t.Fatalf("in-place combineTo = %v (err %v), want %v", own, err, want)
	}
	short := func(a, _ []byte) ([]byte, error) { return a[:8], nil }
	if err := combineTo(dst, own, peer, short); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short operator result: err = %v, want ErrBadLength", err)
	}
}
