package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"starfish/internal/wire"
)

// Randomized equivalence tests: every collective algorithm must produce
// results bit-identical to the sequential spec (the payload itself, foldSeq)
// across rank counts 2..9 — powers of two and not — odd message sizes, and
// odd segment boundaries. Algorithms that production selects only above a
// size crossover are forced at small sizes through their unexported entry
// points. The reduction tests use int64 operators, whose folds are exactly
// associative, so any combine order must match the sequential one bit for
// bit.

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randInt64Buf(rng *rand.Rand, elems int) []byte {
	vs := make([]int64, elems)
	for i := range vs {
		vs[i] = rng.Int63() - rng.Int63()
	}
	return Int64Bytes(vs)
}

// foldSeq is the sequential oracle: fn(...fn(fn(c0, c1), c2)..., c_{n-1}).
func foldSeq(t *testing.T, contribs [][]byte, fn ReduceFunc) []byte {
	t.Helper()
	acc := contribs[0]
	for _, c := range contribs[1:] {
		var err error
		if acc, err = fn(acc, c); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// byteMaxFn is a test-only operator with no word kernel (exercising
// combineTo's allocating fallback) that accepts any length.
func byteMaxFn(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrBadLength, len(a), len(b))
	}
	out := make([]byte, len(a))
	for i := range a {
		out[i] = max(a[i], b[i])
	}
	return out, nil
}

// bcastWith is Bcast with the root's algorithm forced; the other ranks
// follow the header, as they do in production.
func bcastWith(c *Comm, root wire.Rank, buf []byte, algo byte, seg int) ([]byte, error) {
	if c.Rank() != root {
		return c.Bcast(root, nil)
	}
	return buf, c.bcastRoot(root, buf, algo, seg)
}

func TestBcastAlgorithmsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type algoCase struct {
		name  string
		algo  byte
		seg   int
		sizes []int
	}
	for n := 2; n <= 9; n++ {
		cases := []algoCase{
			{"naive", collAlgNaive, 0, []int{0, 1, 7, 1000}},
			{"seg33", collAlgSeg, 33, []int{1, 32, 33, 34, 100, 4097}},
			{"seg1024", collAlgSeg, 1024, []int{1000, 1024, 5000}},
			{"vdg", collAlgVdG, 0, []int{n, n + 3, 1000, 8191}},
		}
		comms := world(t, n)
		for _, tc := range cases {
			for _, size := range tc.sizes {
				root := wire.Rank(rng.Intn(n))
				payload := randBytes(rng, size)
				results := make([][]byte, n)
				runRanks(t, comms, func(c *Comm) error {
					got, err := bcastWith(c, root, payload, tc.algo, tc.seg)
					results[c.Rank()] = got
					return err
				})
				for r, got := range results {
					if !bytes.Equal(got, payload) {
						t.Fatalf("n=%d %s size=%d root=%d: rank %d got %d bytes, want %d",
							n, tc.name, size, root, r, len(got), len(payload))
					}
				}
			}
		}
	}
}

// TestBcastBackToBackDifferentRoots is the regression for the seed bug:
// the child receive used wire.AnyRank, so consecutive broadcasts with
// different roots could cross-match when a later round's parent message
// arrived first. Receiving from the deterministic parent fixes it.
func TestBcastBackToBackDifferentRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 3; n <= 5; n++ {
		comms := world(t, n)
		const rounds = 20
		roots := make([]wire.Rank, rounds)
		payloads := make([][]byte, rounds)
		for i := range roots {
			roots[i] = wire.Rank(rng.Intn(n))
			payloads[i] = randBytes(rng, 16+rng.Intn(64))
			payloads[i][0] = byte(i) // distinguishable per round
		}
		results := make([][][]byte, rounds)
		for i := range results {
			results[i] = make([][]byte, n)
		}
		runRanks(t, comms, func(c *Comm) error {
			for i := 0; i < rounds; i++ {
				var buf []byte
				if c.Rank() == roots[i] {
					buf = payloads[i]
				}
				got, err := c.Bcast(roots[i], buf)
				if err != nil {
					return err
				}
				results[i][c.Rank()] = got
			}
			return nil
		})
		for i := range results {
			for r, got := range results[i] {
				if !bytes.Equal(got, payloads[i]) {
					t.Fatalf("n=%d round %d root=%d: rank %d received the wrong broadcast", n, i, roots[i], r)
				}
			}
		}
	}
}

func TestReduceScatterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 9; n++ {
		comms := world(t, n)
		for trial := 0; trial < 3; trial++ {
			elems := n + rng.Intn(40)
			contribs := make([][]byte, n)
			for r := range contribs {
				contribs[r] = randInt64Buf(rng, elems)
			}
			// nil counts (even split) and a random aligned split with
			// zero-length chunks mixed in.
			countSets := [][]int{nil}
			counts := make([]int, n)
			left := elems
			for r := 0; r < n-1; r++ {
				c := rng.Intn(left + 1)
				if rng.Intn(4) == 0 {
					c = 0
				}
				counts[r] = 8 * c
				left -= c
			}
			counts[n-1] = 8 * left
			countSets = append(countSets, counts)
			for _, cs := range countSets {
				full := foldSeq(t, contribs, SumInt64)
				results := make([][]byte, n)
				runRanks(t, comms, func(c *Comm) error {
					got, err := c.ReduceScatter(contribs[c.Rank()], cs, SumInt64)
					results[c.Rank()] = got
					return err
				})
				offs := 0
				for r := 0; r < n; r++ {
					var want []byte
					if cs == nil {
						per, _ := evenByteCounts(8*elems, n, 8)
						want = full[offs : offs+per[r]]
						offs += per[r]
					} else {
						want = full[offs : offs+cs[r]]
						offs += cs[r]
					}
					if !bytes.Equal(results[r], want) {
						t.Fatalf("n=%d trial=%d: rank %d chunk mismatch", n, trial, r)
					}
				}
			}
		}
	}
}

func TestAllreduceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops := []struct {
		name string
		fn   ReduceFunc
	}{{"sum", SumInt64}, {"min", MinInt64}, {"max", MaxInt64}}
	for n := 2; n <= 9; n++ {
		comms := world(t, n)
		// Both allreduce algorithms at sizes where Allreduce itself picks the
		// tree: Rabenseifner forced through its entry point.
		algos := []func(c *Comm, contrib []byte, fn ReduceFunc) ([]byte, error){
			(*Comm).allreduceRab, (*Comm).Allreduce,
		}
		for _, op := range ops {
			for _, elems := range []int{n, n + 13, 257} {
				contribs := make([][]byte, n)
				for r := range contribs {
					contribs[r] = randInt64Buf(rng, elems)
				}
				want := foldSeq(t, contribs, op.fn)
				for _, allreduce := range algos {
					results := make([][]byte, n)
					runRanks(t, comms, func(c *Comm) error {
						got, err := allreduce(c, contribs[c.Rank()], op.fn)
						results[c.Rank()] = got
						return err
					})
					for r := range results {
						if !bytes.Equal(results[r], want) {
							t.Fatalf("n=%d op=%s elems=%d: rank %d mismatch", n, op.name, elems, r)
						}
					}
				}
			}
		}
		// Unaligned length: tree reduce + bcast, with an operator that has
		// no word kernel.
		size := 8*n + 3
		contribs := make([][]byte, n)
		for r := range contribs {
			contribs[r] = randBytes(rng, size)
		}
		want := foldSeq(t, contribs, byteMaxFn)
		results := make([][]byte, n)
		runRanks(t, comms, func(c *Comm) error {
			got, err := c.Allreduce(contribs[c.Rank()], byteMaxFn)
			results[c.Rank()] = got
			return err
		})
		for r := range results {
			if !bytes.Equal(results[r], want) {
				t.Fatalf("n=%d unaligned byte-max: rank %d mismatch", n, r)
			}
		}
	}
}

func TestGatherScatterTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 9; n++ {
		comms := world(t, n)
		for trial := 0; trial < 4; trial++ {
			root := wire.Rank(rng.Intn(n))

			contribs := make([][]byte, n)
			for r := range contribs {
				contribs[r] = randBytes(rng, rng.Intn(200)) // includes 0-length
			}
			var gathered [][]byte
			runRanks(t, comms, func(c *Comm) error {
				got, err := c.Gather(root, contribs[c.Rank()])
				if c.Rank() == root {
					gathered = got
				}
				return err
			})
			for r := range contribs {
				if !bytes.Equal(gathered[r], contribs[r]) {
					t.Fatalf("n=%d root=%d: gather entry %d mismatch", n, root, r)
				}
			}

			parts := make([][]byte, n)
			for r := range parts {
				parts[r] = randBytes(rng, rng.Intn(200))
			}
			scattered := make([][]byte, n)
			runRanks(t, comms, func(c *Comm) error {
				var in [][]byte
				if c.Rank() == root {
					in = parts
				}
				got, err := c.Scatter(root, in)
				scattered[c.Rank()] = got
				return err
			})
			for r := range parts {
				if !bytes.Equal(scattered[r], parts[r]) {
					t.Fatalf("n=%d root=%d: scatter part %d mismatch", n, root, r)
				}
			}

			var gatheredV [][]byte
			runRanks(t, comms, func(c *Comm) error {
				got, err := c.Gatherv(root, contribs[c.Rank()])
				if c.Rank() == root {
					gatheredV = got
				}
				return err
			})
			for r := range contribs {
				if !bytes.Equal(gatheredV[r], contribs[r]) {
					t.Fatalf("n=%d root=%d: gatherv entry %d mismatch", n, root, r)
				}
			}
		}
	}
}

// TestCollectivesPooledGuardLarge drives the segmented and chunked paths
// at >=1 MiB with odd boundaries while the pool guard is active (it always
// is under go test): any use-after-release in the pipelines reads 0xDB
// poison and fails the content checks.
func TestCollectivesPooledGuardLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large-buffer test")
	}
	if !wire.PoolGuardEnabled() {
		t.Fatal("pool guard should be on under go test")
	}
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{4, 5} { // power of two and not
		comms := world(t, n)
		size := 1<<20 + 7
		payload := randBytes(rng, size)
		for _, tc := range []struct {
			name string
			algo byte
			seg  int
		}{{"seg8191", collAlgSeg, 8191}, {"vdg", collAlgVdG, 0}} {
			results := make([][]byte, n)
			runRanks(t, comms, func(c *Comm) error {
				got, err := bcastWith(c, 1, payload, tc.algo, tc.seg)
				results[c.Rank()] = got
				return err
			})
			for r := range results {
				if !bytes.Equal(results[r], payload) {
					t.Fatalf("n=%d %s: rank %d bcast corrupted", n, tc.name, r)
				}
			}
		}
		elems := 1 << 17 // 1 MiB of int64s
		contribs := make([][]byte, n)
		for r := range contribs {
			contribs[r] = randInt64Buf(rng, elems)
		}
		want := foldSeq(t, contribs, SumInt64)
		allres := make([][]byte, n)
		runRanks(t, comms, func(c *Comm) error {
			got, err := c.Allreduce(contribs[c.Rank()], SumInt64)
			allres[c.Rank()] = got
			return err
		})
		for r := range allres {
			if !bytes.Equal(allres[r], want) {
				t.Fatalf("n=%d: rank %d allreduce corrupted", n, r)
			}
		}

		blocks := make([][]byte, n)
		for r := range blocks {
			blocks[r] = randBytes(rng, 64<<10)
		}
		var gathered [][]byte
		var mu sync.Mutex
		runRanks(t, comms, func(c *Comm) error {
			got, err := c.Gather(0, blocks[c.Rank()])
			if c.Rank() == 0 {
				mu.Lock()
				gathered = got
				mu.Unlock()
			}
			return err
		})
		for r := range blocks {
			if !bytes.Equal(gathered[r], blocks[r]) {
				t.Fatalf("n=%d: rank %d gather corrupted", n, r)
			}
		}
	}
}
