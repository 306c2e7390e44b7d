// Collective-operation benchmarks. scripts/check.sh runs these with
// -benchmem and folds the results into BENCH_collectives.json, enforcing
// the size-adaptive collective engine's acceptance bar — >=3x on the 8 MiB
// Allreduce at 8 ranks versus the seed reduce-to-0-plus-bcast algorithm —
// and the reduction copy budget: the 1 MiB Allreduce at 4 ranks copies
// exactly 1.5x its size per rank (copy_B/op, summed over the ranks).
package mpi

import (
	"fmt"
	"sync"
	"testing"

	"starfish/internal/wire"
)

// The algo=seed rows are what the library did before it chose by size, built
// from shipping entry points forced directly: the whole message down the
// binomial tree, and for Allreduce a reduce to rank 0 whose operator has no
// word kernel (every merge allocates) followed by that broadcast.
func seedBcast(c *Comm, buf []byte) ([]byte, error) {
	return bcastWith(c, 0, buf, collAlgNaive, 0)
}

func seedSum(a, b []byte) ([]byte, error) { return SumInt64(a, b) }

func seedAllreduce(c *Comm, contrib []byte, _ ReduceFunc) ([]byte, error) {
	acc, err := c.Reduce(0, contrib, seedSum)
	if err != nil {
		return nil, err
	}
	return seedBcast(c, acc)
}

// runAllRanks executes one collective on every rank concurrently.
func runAllRanks(b *testing.B, comms []*Comm, fn func(c *Comm) error) {
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", r, err)
		}
	}
}

func sizeName(size int) string {
	switch {
	case size >= 1<<20:
		return fmt.Sprintf("%dMB", size>>20)
	case size >= 1<<10:
		return fmt.Sprintf("%dKB", size>>10)
	default:
		return fmt.Sprintf("%dB", size)
	}
}

// BenchmarkCollectives sweeps Bcast, Allreduce, and Alltoall over 1 KiB..
// 8 MiB at 4 and 8 ranks. algo=seed runs the stand-ins above; algo=opt the
// size-adaptive engine. segs/op reports how many internal segments/chunks
// the chosen algorithms put on the wire, copy_B/op how many payload bytes
// all ranks together copied (wire.CopiedBytes).
func BenchmarkCollectives(b *testing.B) {
	prev := wire.SetPoolGuard(false)
	defer wire.SetPoolGuard(prev)
	sizes := []int{1 << 10, 64 << 10, 1 << 20, 8 << 20}
	ranks := []int{4, 8}
	algos := []struct {
		name      string
		bcast     func(c *Comm, buf []byte) ([]byte, error)
		allreduce func(c *Comm, contrib []byte, fn ReduceFunc) ([]byte, error)
	}{
		{"seed", seedBcast, seedAllreduce},
		{"opt", func(c *Comm, buf []byte) ([]byte, error) { return c.Bcast(0, buf) }, (*Comm).Allreduce},
	}

	for _, n := range ranks {
		for _, algo := range algos {
			for _, size := range sizes {
				name := fmt.Sprintf("op=bcast/algo=%s/ranks=%d/size=%s", algo.name, n, sizeName(size))
				b.Run(name, func(b *testing.B) {
					comms := world(b, n)
					payload := make([]byte, size)
					b.SetBytes(int64(size))
					segs0, _ := wire.CollSegStats()
					copied0 := wire.CopiedBytes()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runAllRanks(b, comms, func(c *Comm) error {
							var buf []byte
							if c.Rank() == 0 {
								buf = payload
							}
							res, err := algo.bcast(c, buf)
							if err == nil && c.Rank() != 0 {
								// Steady state recycles pooled results; PutBuf
								// ignores non-pooled ones. The root's result is
								// the caller-owned payload — never returned.
								wire.PutBuf(res)
							}
							return err
						})
					}
					b.StopTimer()
					segs1, _ := wire.CollSegStats()
					b.ReportMetric(float64(segs1-segs0)/float64(b.N), "segs/op")
					b.ReportMetric(float64(wire.CopiedBytes()-copied0)/float64(b.N), "copy_B/op")
				})
			}
		}
	}

	for _, n := range ranks {
		for _, algo := range algos {
			for _, size := range sizes {
				name := fmt.Sprintf("op=allreduce/algo=%s/ranks=%d/size=%s", algo.name, n, sizeName(size))
				b.Run(name, func(b *testing.B) {
					comms := world(b, n)
					contribs := make([][]byte, n)
					for r := range contribs {
						contribs[r] = make([]byte, size)
					}
					b.SetBytes(int64(size))
					segs0, _ := wire.CollSegStats()
					copied0 := wire.CopiedBytes()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runAllRanks(b, comms, func(c *Comm) error {
							res, err := algo.allreduce(c, contribs[c.Rank()], SumInt64)
							if err == nil {
								wire.PutBuf(res) // recycle pooled results
							}
							return err
						})
					}
					b.StopTimer()
					segs1, _ := wire.CollSegStats()
					b.ReportMetric(float64(segs1-segs0)/float64(b.N), "segs/op")
					b.ReportMetric(float64(wire.CopiedBytes()-copied0)/float64(b.N), "copy_B/op")
				})
			}
		}
	}

	// Alltoall has one algorithm at every size (pairwise exchange with
	// receives posted up front); one variant suffices.
	for _, n := range ranks {
		for _, size := range sizes {
			name := fmt.Sprintf("op=alltoall/algo=opt/ranks=%d/size=%s", n, sizeName(size))
			b.Run(name, func(b *testing.B) {
				comms := world(b, n)
				parts := make([][][]byte, n)
				for r := range parts {
					parts[r] = make([][]byte, n)
					for p := range parts[r] {
						parts[r][p] = make([]byte, size/n)
					}
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runAllRanks(b, comms, func(c *Comm) error {
						_, err := c.Alltoall(parts[c.Rank()])
						return err
					})
				}
			})
		}
	}
}
