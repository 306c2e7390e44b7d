package mpi

import "testing"

// TestCollectiveSelection pins the algorithm choice on each side of every
// crossover. bcastAlgo and allreduceUseRab take nothing but (size, n), so
// the table is also the proof that nothing else can influence the schedule.
func TestCollectiveSelection(t *testing.T) {
	const KiB, MiB = 1 << 10, 1 << 20
	for _, tc := range []struct {
		size, n int
		algo    byte
		seg     int
		rab     bool
	}{
		{0, 2, collAlgNaive, 0, false},
		{1, 2, collAlgNaive, 0, false}, // size < n
		{64*KiB - 1, 8, collAlgNaive, 0, false},
		{64*KiB - 8, 8, collAlgNaive, 0, false}, // aligned, just under the crossover
		{64 * KiB, 2, collAlgNaive, 0, true},
		{64 * KiB, 8, collAlgNaive, 0, true},
		{64 * KiB, 9, collAlgNaive, 0, true},
		{64*KiB + 4, 8, collAlgNaive, 0, false}, // not a multiple of 8
		{64 * KiB, 8192, collAlgNaive, 0, true},
		{64 * KiB, 8193, collAlgNaive, 0, false}, // fewer elements than ranks
		{128 * KiB, 8, collAlgNaive, 0, true},    // one segment: nothing to pipeline
		{128*KiB + 1, 8, collAlgSeg, 128 * KiB, false},
		{128*KiB + 8, 9, collAlgSeg, 128 * KiB, true},
		{MiB - 1, 8, collAlgSeg, 128 * KiB, false},
		{MiB, 2, collAlgVdG, 0, true},
		{MiB, 8, collAlgVdG, 0, true},
		{MiB, 9, collAlgVdG, 0, true},
		{MiB, MiB + 1, collAlgSeg, 128 * KiB, false}, // under one byte per rank
		{8 * MiB, 8, collAlgVdG, 0, true},
	} {
		algo, seg := bcastAlgo(tc.size, tc.n)
		if algo != tc.algo || seg != tc.seg {
			t.Errorf("bcastAlgo(%d, %d) = (%d, %d), want (%d, %d)", tc.size, tc.n, algo, seg, tc.algo, tc.seg)
		}
		if rab := allreduceUseRab(tc.size, tc.n); rab != tc.rab {
			t.Errorf("allreduceUseRab(%d, %d) = %v, want %v", tc.size, tc.n, rab, tc.rab)
		}
	}
}
