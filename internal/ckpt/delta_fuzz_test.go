package ckpt

import "testing"

// FuzzDeltaRoundTrip drives the block rule with arbitrary state pairs: what
// ComputeDelta names is what the pipeline's diff names, and the record written
// from it must reconstruct next exactly — including states that shrink, grow,
// or land off block boundaries.
func FuzzDeltaRoundTrip(f *testing.F) {
	block := func(fill byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	// Same size, one changed block.
	f.Add(block(1, 3*DeltaBlockSize), append(block(1, 2*DeltaBlockSize), block(2, DeltaBlockSize)...))
	// Growth past the base, off-boundary.
	f.Add(block(3, DeltaBlockSize/2), block(3, 4*DeltaBlockSize+17))
	// Shrink to a prefix, and shrink within the shared tail block.
	f.Add(block(4, 4*DeltaBlockSize), block(4, DeltaBlockSize+1))
	f.Add(block(5, DeltaBlockSize+100), block(5, DeltaBlockSize+99))
	// Degenerate sizes.
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte{42})
	f.Add([]byte{42}, []byte{})

	f.Fuzz(func(t *testing.T, base, next []byte) {
		checkDelta(t, base, next)
	})
}
