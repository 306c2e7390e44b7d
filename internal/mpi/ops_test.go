package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestBuiltinKernels: for every builtin operator, the derived allocating form
// and the kernel run in place — on word-aligned buffers and on buffers
// sub-sliced off alignment, which take the byte-decoding loop — agree bit for
// bit with the scalar definition and leave their second argument alone.
func TestBuiltinKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f, fb := math.Float64frombits, math.Float64bits
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
			for shift := 0; shift <= 1; shift++ {
				dst := append(make([]byte, shift), a...)[shift:]
				src := append(make([]byte, shift), b...)[shift:]
				if err := combineInto(dst, src, op.fn); err != nil || !bytes.Equal(dst, want) || !bytes.Equal(src, b) {
					t.Errorf("%s elems=%d shift=%d: in-place kernel differs from the spec (err %v)", op.name, elems, shift, err)
				}
			}
		}
	}
}
