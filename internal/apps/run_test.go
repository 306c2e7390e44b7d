package apps

import (
	"fmt"
	"sync"
	"testing"

	"starfish/internal/mpi"
	"starfish/internal/proc"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// worldCtxs builds one application context per rank, directly on MPI
// communicators over a private fastnet (no daemon/runtime).
func worldCtxs(t testing.TB, size int) []*proc.Ctx {
	t.Helper()
	fn := vni.NewFastnet(0)
	addrs := make(map[wire.Rank]string, size)
	nics := make([]*vni.NIC, size)
	for i := 0; i < size; i++ {
		nic, err := vni.NewNIC(fn, fmt.Sprintf("drv-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
		addrs[wire.Rank(i)] = nic.Addr()
		t.Cleanup(func() { nic.Close() })
	}
	ctxs := make([]*proc.Ctx, size)
	for i := 0; i < size; i++ {
		comm, err := mpi.New(mpi.Config{App: 1, Rank: wire.Rank(i), Size: size, NIC: nics[i], Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(comm.Close)
		ctxs[i] = &proc.Ctx{Comm: comm, Rank: wire.Rank(i), Size: size}
	}
	return ctxs
}

// driveApps runs one instance of an application per rank to completion and
// returns the app instances for inspection.
func driveApps(t *testing.T, size int, mk func(rank wire.Rank) proc.App) []proc.App {
	t.Helper()
	instances := make([]proc.App, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, ctx := range worldCtxs(t, size) {
		app := mk(wire.Rank(i))
		instances[i] = app
		wg.Add(1)
		go func(i int, app proc.App, ctx *proc.Ctx) {
			defer wg.Done()
			if err := app.Init(ctx); err != nil {
				errs[i] = err
				return
			}
			for steps := 0; steps < 1<<20; steps++ {
				done, err := app.Step(ctx)
				if err != nil {
					errs[i] = err
					return
				}
				if done {
					return
				}
			}
			errs[i] = fmt.Errorf("rank %d: step limit", i)
		}(i, app, ctx)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return instances
}

func TestRingDirectDrive(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		insts := driveApps(t, size, func(wire.Rank) proc.App {
			a, _ := DecodeRing(RingArgs(25))
			return a
		})
		// Self-verification happened inside Step; also check values.
		for r, inst := range insts {
			ring := inst.(*Ring)
			want := ((int64(r)-25)%int64(size)+int64(size))%int64(size) + 25
			if ring.Value() != want {
				t.Errorf("size %d rank %d: val %d, want %d", size, r, ring.Value(), want)
			}
		}
	}
}

func TestJacobiDirectDrive(t *testing.T) {
	// Uneven block sizes (10 points over 3 ranks) and enough sweeps for a
	// non-trivial profile; rank 0 verifies against the sequential run
	// inside Step.
	driveApps(t, 3, func(wire.Rank) proc.App {
		a, _ := DecodeJacobi(JacobiArgs(10, 300, 2.0, -1.0))
		return a
	})
	driveApps(t, 1, func(wire.Rank) proc.App {
		a, _ := DecodeJacobi(JacobiArgs(7, 50, 1.0, 0.0))
		return a
	})
}

func TestPartitionDirectDrive(t *testing.T) {
	insts := driveApps(t, 3, func(wire.Rank) proc.App {
		a, _ := DecodePartition(PartitionArgs(31, 100))
		return a
	})
	total := 0
	for _, inst := range insts {
		total += inst.(*Partition).Processed()
	}
	if total != 31 {
		t.Errorf("chunks processed = %d, want 31 (exactly once each)", total)
	}
}

func TestPingPongDirectDrive(t *testing.T) {
	insts := driveApps(t, 2, func(wire.Rank) proc.App {
		a, _ := DecodePingPong(PingPongArgs([]int{1, 256}, 5, false))
		return a
	})
	pp := insts[0].(*PingPong)
	if len(pp.Results) != 2 {
		t.Fatalf("results = %+v", pp.Results)
	}
	for i, want := range []int{1, 256} {
		if pp.Results[i].Size != want || pp.Results[i].RTT <= 0 {
			t.Errorf("result[%d] = %+v", i, pp.Results[i])
		}
	}
}

func TestPingPongRequiresTwoRanks(t *testing.T) {
	a, _ := DecodePingPong(PingPongArgs([]int{1}, 1, false))
	ctx := &proc.Ctx{Rank: 0, Size: 1}
	if err := a.Init(ctx); err == nil {
		t.Error("single-rank pingpong accepted")
	}
}

func TestSizerDirectDrive(t *testing.T) {
	insts := driveApps(t, 1, func(wire.Rank) proc.App {
		a, _ := DecodeSizer(SizerArgsSleep(4096, 5, 0))
		return a
	})
	s := insts[0].(*Sizer)
	if s.step != 5 {
		t.Errorf("steps = %d", s.step)
	}
}
