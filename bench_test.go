// Benchmarks regenerating the paper's evaluation (§5): one bench family
// per figure. Absolute numbers differ from the 1999 testbed (300 MHz
// Pentium II, IDE disks, Myrinet), but the shapes the paper reports are
// reproduced: checkpoint time linear in state size and growing with node
// count (figures 3 and 4, with the VM-level floor below the native floor);
// round-trip latency linear in message size with the user-level transport
// well below TCP (figure 5); and per-layer software overheads independent
// of message size (figure 6).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFigure3 -benchtime=3x
package starfish_test

import (
	"fmt"
	"testing"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/core"
	"starfish/internal/gcs"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// ---- Figures 3 & 4: distributed checkpoint time vs size and node count ----

// ckptSizes are the per-process state sizes swept by the checkpoint
// benchmarks. The paper sweeps 632 KB – 135 MB (native) and 260 KB – 96 MB
// (VM-level); the shape (linearity) shows at laptop-friendly sizes.
var ckptSizes = []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}

var ckptNodeCounts = []int{1, 2, 4}

// benchCheckpoint measures one full coordinated checkpoint round
// (stop-and-sync: request broadcast, cut, drain, dump to disk, ack,
// commit) of an application with stateBytes of live state per rank.
func benchCheckpoint(b *testing.B, nodes, stateBytes int, encoder ckpt.Kind) {
	b.Helper()
	// A long failure-detection budget: big state dumps and busy CPUs must
	// not trip false suspicions mid-benchmark.
	env, err := core.New(core.Options{
		Nodes: nodes, StoreDir: b.TempDir(),
		HeartbeatEvery: 20 * time.Millisecond, FailAfter: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Shutdown()
	if err := env.WaitView(nodes, 15*time.Second); err != nil {
		b.Fatal(err)
	}
	const app = core.AppID(1)
	if err := env.Submit(core.Job{
		ID: app, Name: apps.SizerName, Args: apps.SizerArgs(stateBytes, 1<<40),
		Ranks: nodes, Protocol: core.StopAndSync, Encoder: encoder,
	}); err != nil {
		b.Fatal(err)
	}
	// Wait until the application is actually stepping.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, ok := env.Status(app); ok && st.Status != 0 && st.Status.String() == "running" {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("application never started")
		}
		time.Sleep(500 * time.Microsecond)
	}

	var enc ckpt.Encoder = &ckpt.NativeEncoder{}
	if encoder == ckpt.Portable {
		enc = &ckpt.PortableEncoder{}
	}
	perRank := int64(stateBytes + enc.Overhead())
	b.SetBytes(perRank * int64(nodes))

	var lastIdx uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Checkpoint(app); err != nil {
			b.Fatal(err)
		}
		// The round is complete when the committed line advances.
		for {
			line, err := env.CommittedLine(app)
			if err == nil {
				idx := line[0]
				if idx > lastIdx {
					lastIdx = idx
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(perRank)/(1<<20), "MB/rank")
}

// BenchmarkFigure3 reproduces figure 3: native (homogeneous, process-
// level) checkpoint time as a function of checkpoint size, on 1, 2 and 4
// nodes, using the stop-and-sync protocol. Every dump carries the
// simulated 632 KB runtime image, the paper's empty-program floor.
func BenchmarkFigure3(b *testing.B) {
	for _, nodes := range ckptNodeCounts {
		for _, size := range ckptSizes {
			b.Run(fmt.Sprintf("nodes=%d/state=%s", nodes, sizeLabel(size)), func(b *testing.B) {
				benchCheckpoint(b, nodes, size, ckpt.Native)
			})
		}
	}
}

// BenchmarkFigure4 reproduces figure 4: VM-level (heterogeneous, portable)
// checkpoint time for the same sweep. The portable floor (260 KB of
// VM-level bookkeeping, no VM internals) is smaller than the native one,
// so for equal application state the dumps are smaller and faster —
// exactly the relationship between the paper's figures 3 and 4.
func BenchmarkFigure4(b *testing.B) {
	for _, nodes := range ckptNodeCounts {
		for _, size := range ckptSizes {
			b.Run(fmt.Sprintf("nodes=%d/state=%s", nodes, sizeLabel(size)), func(b *testing.B) {
				benchCheckpoint(b, nodes, size, ckpt.Portable)
			})
		}
	}
}

// ---- Figure 5: round-trip delay vs message size, fast transport vs TCP ----

var rtSizes = []int{1, 64, 256, 1024, 4096, 16384, 65536}

// pingWorld builds a two-rank MPI world on the given transport and starts
// an echo server on rank 1.
func pingWorld(b *testing.B, tr vni.Transport, addr func(int) string, timer *vni.StageTimer) (*mpi.Comm, func()) {
	b.Helper()
	// Latency benchmarks measure the data path, not the pool's test-mode
	// ownership instrumentation.
	guard := wire.SetPoolGuard(false)
	nic0, err := vni.NewNIC(tr, addr(0), 0)
	if err != nil {
		b.Fatal(err)
	}
	nic1, err := vni.NewNIC(tr, addr(1), 0)
	if err != nil {
		b.Fatal(err)
	}
	addrs := map[wire.Rank]string{0: nic0.Addr(), 1: nic1.Addr()}
	c0, err := mpi.New(mpi.Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs, Timer: timer})
	if err != nil {
		b.Fatal(err)
	}
	c1, err := mpi.New(mpi.Config{App: 1, Rank: 1, Size: 2, NIC: nic1, Addrs: addrs})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			data, _, err := c1.Recv(0, 0)
			if err != nil {
				return
			}
			if err := c1.Send(0, 0, data); err != nil {
				return
			}
		}
	}()
	cleanup := func() {
		c0.Close()
		c1.Close()
		<-done
		nic0.Close()
		nic1.Close()
		wire.SetPoolGuard(guard)
	}
	return c0, cleanup
}

// BenchmarkFigure5 reproduces figure 5: application-level round-trip delay
// versus message size over the fastnet transport (the BIP/Myrinet
// stand-in) and over real loopback TCP. ns/op is one round trip.
func BenchmarkFigure5(b *testing.B) {
	transports := []struct {
		name string
		tr   vni.Transport
		addr func(int) string
	}{
		{"bip-fastnet", vni.NewFastnet(0), func(i int) string { return fmt.Sprintf("f5-%d", i) }},
		{"tcp", vni.NewTCP(), func(int) string { return "127.0.0.1:0" }},
	}
	for _, tc := range transports {
		for _, size := range rtSizes {
			b.Run(fmt.Sprintf("%s/size=%d", tc.name, size), func(b *testing.B) {
				c0, cleanup := pingWorld(b, tc.tr, tc.addr, nil)
				defer cleanup()
				buf := make([]byte, size)
				b.SetBytes(int64(2 * size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c0.Send(1, 0, buf); err != nil {
						b.Fatal(err)
					}
					if _, _, err := c0.Recv(1, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Figure 6: per-layer software overhead, independent of size ----

// BenchmarkFigure6 reproduces figure 6: the time a message spends in each
// software layer for sending and receiving. The per-layer means are
// reported as custom metrics; running the bench at several message sizes
// shows they stay flat — messages are never copied between layers, the
// paper's explanation for the same observation.
func BenchmarkFigure6(b *testing.B) {
	for _, size := range []int{1, 1024, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			timer := vni.NewStageTimer()
			fn := vni.NewFastnet(0)
			c0, cleanup := pingWorld(b, fn, func(i int) string { return fmt.Sprintf("f6-%d", i) }, timer)
			defer cleanup()
			buf := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c0.Send(1, 0, buf); err != nil {
					b.Fatal(err)
				}
				if _, _, err := c0.Recv(1, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, st := range []vni.Stage{vni.StageMPISend, vni.StageVNISend, vni.StageVNIRecv, vni.StageMPIRecv} {
				b.ReportMetric(float64(timer.Mean(st).Nanoseconds()), st.String()+"-ns")
			}
		})
	}
}

// ---- supporting micro-benchmarks (substrate performance) ----

// BenchmarkEncoders measures raw checkpoint encode+decode throughput for
// both encoders at 1 MB of state.
func BenchmarkEncoders(b *testing.B) {
	state := make([]byte, 1<<20)
	for i := range state {
		state[i] = byte(i)
	}
	arch := svm.Machines[0]
	for _, enc := range []ckpt.Encoder{&ckpt.NativeEncoder{}, &ckpt.PortableEncoder{}} {
		b.Run(enc.Kind().String(), func(b *testing.B) {
			b.SetBytes(int64(len(state) + enc.Overhead()))
			for i := 0; i < b.N; i++ {
				img, err := enc.Encode(state, arch)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := enc.Decode(img, arch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSVM measures VM execution speed and cross-architecture image
// conversion.
func BenchmarkSVM(b *testing.B) {
	prog := svm.MustAssemble(`
loop:   loadg 0
        push 1
        add
        storeg 0
        jmp loop`)
	b.Run("step", func(b *testing.B) {
		m := svm.New(svm.Machines[0], prog, 1)
		b.ResetTimer()
		if _, err := m.RunSteps(b.N); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("convert-le32-to-be64", func(b *testing.B) {
		m := svm.New(svm.Machines[0], prog, 1)
		m.Grow(64 << 10) // 64 Ki words of heap
		img := m.EncodeImage()
		b.SetBytes(int64(len(img)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svm.DecodeImage(img, svm.Machines[5]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGCSCast measures the totally ordered multicast (request to
// sequencer, sequencing, delivery at every member) on a 4-member group.
func BenchmarkGCSCast(b *testing.B) {
	fn := vni.NewFastnet(0)
	var eps []*gcs.Endpoint
	for i := 0; i < 4; i++ {
		cfg := gcs.Config{
			Node: wire.NodeID(i + 1), Transport: fn,
			Addr:           fmt.Sprintf("bench-gcs-%d", i+1),
			HeartbeatEvery: 50 * time.Millisecond,
		}
		if i > 0 {
			cfg.Contact = "bench-gcs-1"
		}
		ep, err := gcs.Join(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer ep.Close()
		eps = append(eps, ep)
	}
	// Wait for the full view everywhere.
	for _, ep := range eps {
		for ev := range ep.Events() {
			if ev.Kind == gcs.EView && len(ev.View.Members) == 4 {
				break
			}
		}
	}
	payload := []byte("benchmark-cast")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eps[1].Cast(payload); err != nil {
			b.Fatal(err)
		}
		// Completion = delivery at the sender (total order reached us).
		for ev := range eps[1].Events() {
			if ev.Kind == gcs.ECast {
				break
			}
		}
	}
}

// BenchmarkCollectivesLatency measures small-message Barrier and Allreduce
// on 4 ranks (the large-message sweep is internal/mpi's BenchmarkCollectives).
func BenchmarkCollectivesLatency(b *testing.B) {
	world := func(b *testing.B) []*mpi.Comm {
		fn := vni.NewFastnet(0)
		addrs := map[wire.Rank]string{}
		nics := make([]*vni.NIC, 4)
		for i := range nics {
			nic, err := vni.NewNIC(fn, fmt.Sprintf("col-%d", i), 0)
			if err != nil {
				b.Fatal(err)
			}
			nics[i] = nic
			addrs[wire.Rank(i)] = nic.Addr()
			b.Cleanup(func() { nic.Close() })
		}
		comms := make([]*mpi.Comm, 4)
		for i := range comms {
			c, err := mpi.New(mpi.Config{App: 1, Rank: wire.Rank(i), Size: 4, NIC: nics[i], Addrs: addrs})
			if err != nil {
				b.Fatal(err)
			}
			comms[i] = c
			b.Cleanup(c.Close)
		}
		return comms
	}
	b.Run("barrier", func(b *testing.B) {
		comms := world(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, 4)
			for _, c := range comms {
				go func(c *mpi.Comm) { errs <- c.Barrier() }(c)
			}
			for range comms {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("allreduce-64f", func(b *testing.B) {
		comms := world(b)
		contrib := mpi.Float64Bytes(make([]float64, 64))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, 4)
			for _, c := range comms {
				go func(c *mpi.Comm) {
					_, err := c.Allreduce(contrib, mpi.SumFloat64)
					errs <- err
				}(c)
			}
			for range comms {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRecoveryLine measures recovery-line computation over a large
// dependency set (the uncoordinated-restart cost).
func BenchmarkRecoveryLine(b *testing.B) {
	const ranks, ckpts = 16, 64
	latest := map[wire.Rank]uint64{}
	var deps []ckpt.Dep
	for r := 0; r < ranks; r++ {
		latest[wire.Rank(r)] = ckpts
		for c := uint64(0); c < ckpts; c++ {
			deps = append(deps, ckpt.Dep{
				From: ckpt.IntervalID{Rank: wire.Rank(r), Index: c},
				To:   ckpt.IntervalID{Rank: wire.Rank((r + 1) % ranks), Index: c},
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpt.ComputeRecoveryLine(latest, deps)
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ---- ablation: the three C/R protocols side by side ----

// BenchmarkProtocolComparison measures one complete checkpoint of the same
// application under each protocol — the side-by-side comparison the
// paper's architecture was explicitly built to enable (§6: "our
// architecture allows us to implement, side-by-side, both coordinated and
// uncoordinated protocols"). ns/op is one full round: for the coordinated
// protocols until the recovery line commits, for the independent protocol
// until every rank's local checkpoint is on disk.
func BenchmarkProtocolComparison(b *testing.B) {
	const nodes = 3
	const stateBytes = 256 << 10
	for _, protocol := range []ckpt.Protocol{ckpt.StopAndSync, ckpt.ChandyLamport, ckpt.Independent} {
		b.Run(protocol.String(), func(b *testing.B) {
			env, err := core.New(core.Options{
				Nodes: nodes, StoreDir: b.TempDir(),
				HeartbeatEvery: 20 * time.Millisecond, FailAfter: 5 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Shutdown()
			if err := env.WaitView(nodes, 15*time.Second); err != nil {
				b.Fatal(err)
			}
			const app = core.AppID(1)
			if err := env.Submit(core.Job{
				ID: app, Name: apps.SizerName, Args: apps.SizerArgs(stateBytes, 1<<40),
				Ranks: nodes, Protocol: protocol, Encoder: core.Portable,
			}); err != nil {
				b.Fatal(err)
			}
			deadline := time.Now().Add(15 * time.Second)
			for {
				if st, ok := env.Status(app); ok && st.Status.String() == "running" {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("application never started")
				}
				time.Sleep(time.Millisecond)
			}

			store := env.Cluster().Store()
			var lastIdx uint64
			lastCounts := make([]int, nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Checkpoint(app); err != nil {
					b.Fatal(err)
				}
				if protocol.Coordinated() {
					for {
						line, err := env.CommittedLine(app)
						if err == nil && line[0] > lastIdx {
							lastIdx = line[0]
							break
						}
						time.Sleep(200 * time.Microsecond)
					}
					continue
				}
				// Independent: wait for every rank's new local checkpoint.
				for r := 0; r < nodes; r++ {
					for {
						ns, err := store.List(app, core.Rank(r))
						if err == nil && len(ns) > lastCounts[r] {
							lastCounts[r] = len(ns)
							break
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}
		})
	}
}
