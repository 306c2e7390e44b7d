package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"starfish/internal/wire"
)

// TestReductionCopyBudget pins the payload bytes a 1 MiB reduction copies,
// summed over its n ranks. Every combine writes straight into the buffer the
// next step reads, so what is left is the API-boundary copy of halving's
// first round out of contrib (S/2 a rank) and, in Allreduce, the ring
// allgather's own-chunk send (S/n) and its n-1 received chunks. Not
// parallel: wire.CopyStats is process-global.
func TestReductionCopyBudget(t *testing.T) {
	const size = 1 << 20
	for _, n := range []int{2, 4, 8} {
		comms := world(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		contribs := make([][]byte, n)
		for r := range contribs {
			contribs[r] = randInt64Buf(rng, size/8)
		}
		want := foldSeq(t, contribs, SumInt64)
		_, offs := evenByteCounts(size, n, collElemAlign)
		check := func(got, want []byte) error {
			if !bytes.Equal(got, want) {
				return errors.New("result differs from the sequential fold")
			}
			return nil
		}
		for _, tc := range []struct {
			name           string
			boundary, coll int // -1: not pinned
			run            func(c *Comm) error
		}{
			{"Allreduce", n * (size/2 + size/n), (n - 1) * size, func(c *Comm) error {
				got, err := c.Allreduce(contribs[c.Rank()], SumInt64)
				if err != nil {
					return err
				}
				defer wire.PutBuf(got)
				return check(got, want)
			}},
			{"ReduceScatter", n * size / 2, 0, func(c *Comm) error {
				got, err := c.ReduceScatter(contribs[c.Rank()], nil, SumInt64)
				if err != nil {
					return err
				}
				return check(got, want[offs[c.Rank()]:offs[c.Rank()+1]])
			}},
			{"Reduce", -1, 0, func(c *Comm) error {
				got, err := c.Reduce(0, contribs[c.Rank()], SumInt64)
				if err != nil || c.Rank() != 0 {
					return err
				}
				defer wire.PutBuf(got)
				return check(got, want)
			}},
		} {
			_, before := wire.CopyStats()
			runRanks(t, comms, tc.run)
			_, after := wire.CopyStats()
			boundary := after[wire.CopyBoundary] - before[wire.CopyBoundary]
			coll := after[wire.CopyColl] - before[wire.CopyColl]
			if tc.boundary >= 0 && boundary != uint64(tc.boundary) {
				t.Errorf("n=%d %s: api-boundary copies %d B, want %d", n, tc.name, boundary, tc.boundary)
			}
			if coll != uint64(tc.coll) {
				t.Errorf("n=%d %s: collective-staging copies %d B, want %d", n, tc.name, coll, tc.coll)
			}
		}
	}
}

// TestHalvingReleasesOnPeerDeath: a partner that dies between halving
// rounds fails allreduceRab and ReduceScatter with ErrPeerDead, and every
// pooled buffer the reduction held goes back to the pool exactly once — the
// half it sends that round (next), the half it keeps, and Rabenseifner's
// result. Guard mode panics on a second release; waitPoolBalance catches a
// missing one. The partner dies either before this rank sends it its half
// (SendOwned fails and releases next) or while this rank waits for the
// partner's (next has left; kept is still held).
func TestHalvingReleasesOnPeerDeath(t *testing.T) {
	const n = 8
	ops := []struct {
		name string
		tag  int32
		run  func(c *Comm, contrib []byte) error
	}{
		{"allreduceRab", tagAllreduceRS, func(c *Comm, contrib []byte) error {
			res, err := c.allreduceRab(contrib, SumInt64)
			wire.PutBuf(res)
			return err
		}},
		{"ReduceScatter", tagReduceScatter, func(c *Comm, contrib []byte) error {
			_, err := c.ReduceScatter(contrib, nil, SumInt64)
			return err
		}},
	}
	for _, op := range ops {
		for _, d := range []int{2, 1} { // the failing round's partner distance
			for _, atRecv := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/d=%d/at-recv=%v", op.name, d, atRecv), func(t *testing.T) {
					comms := world(t, n)
					rng := rand.New(rand.NewSource(int64(d)))
					// The ranks that finish every round before d: the
					// subcube of rank 0 over the distances above d. Each
					// one's round-d partner never joins.
					var ranks []int
					for r := 0; r < n; r++ {
						if r&(2*d-1) == 0 {
							ranks = append(ranks, r)
						}
					}
					contribs := make([][]byte, n)
					for _, r := range ranks {
						contribs[r] = randInt64Buf(rng, 4*n)
						if !atRecv {
							comms[r].SetDead(wire.Rank(r ^ d))
						}
					}
					gets0, puts0, _ := wire.Pool.Stats()
					errs := make([]error, n)
					var wg sync.WaitGroup
					for _, r := range ranks {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							errs[r] = op.run(comms[r], contribs[r])
						}(r)
					}
					if atRecv {
						// Once r's round-d half has reached its partner, the
						// partner dies; r is then waiting for the partner's.
						for _, r := range ranks {
							p := r ^ d
							if _, err := comms[p].Probe(wire.Rank(r), op.tag); err != nil {
								t.Fatal(err)
							}
							comms[r].SetDead(wire.Rank(p))
						}
					}
					wg.Wait()
					for _, r := range ranks {
						if !errors.Is(errs[r], ErrPeerDead) {
							t.Errorf("rank %d: err = %v, want ErrPeerDead", r, errs[r])
						}
						if atRecv {
							data, st, err := comms[r^d].Recv(wire.Rank(r), op.tag)
							if err != nil {
								t.Fatal(err)
							}
							if st.Pooled {
								wire.PutBuf(data)
							}
						}
					}
					waitPoolBalance(t, gets0, puts0)
				})
			}
		}
	}
}
