// starfish-bench regenerates every figure and table of the paper's
// evaluation section (§5) and prints them as paper-style rows. Absolute
// numbers reflect this machine, not the 1999 testbed; the shapes — linear
// checkpoint time, native-vs-VM-level floors, fast-transport-vs-TCP gap,
// size-independent layer overheads — are the reproduction targets.
//
//	starfish-bench             # everything
//	starfish-bench -fig 3      # one figure (3, 4, 4i, 4r, 5, 6, 7f)
//	starfish-bench -table 2    # one table (1, 2)
//
// Figures "4i" and "4r" are reproduction extensions, not paper figures:
// "4i" tables the incremental checkpoint pipeline against the whole-image
// path across heap mutation rates; "4r" is the
// recovery-time table of the replicated in-memory checkpoint store (disk
// restore vs RAM-replica restore).
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"starfish/internal/apps"
	"starfish/internal/chaosnet"
	"starfish/internal/ckpt"
	"starfish/internal/cluster"
	"starfish/internal/core"
	"starfish/internal/daemon"
	"starfish/internal/mpi"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

func main() {
	fig := flag.String("fig", "", "regenerate one figure (3, 4, 4i, 4r, 5, 6, 7f); empty = all")
	table := flag.Int("table", 0, "regenerate one table (1..2); 0 = all")
	reps := flag.Int("reps", 100, "round-trip repetitions per point (figure 5/6)")
	rounds := flag.Int("rounds", 3, "checkpoint rounds per point (figures 3/4)")
	flag.Parse()

	all := *fig == "" && *table == 0
	if all || *fig == "3" {
		figure34(3, ckpt.Native, *rounds)
	}
	if all || *fig == "4" {
		figure34(4, ckpt.Portable, *rounds)
	}
	if all || *fig == "4i" {
		figure4i(*rounds)
	}
	if all || *fig == "4r" {
		figure4r(*rounds)
	}
	if all || *fig == "5" {
		figure5(*reps)
	}
	if all || *fig == "6" {
		figure6(*reps)
	}
	if all || *fig == "7f" {
		figure7f()
	}
	if all || *table == 1 {
		table1()
	}
	if all || *table == 2 {
		table2()
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println("==================================================================")
	fmt.Println(title)
	fmt.Println("==================================================================")
}

// ---- figures 3 & 4 ----

func figure34(fig int, kind ckpt.Kind, rounds int) {
	name := "Native (homogeneous) checkpointing, stop-and-sync"
	if kind == ckpt.Portable {
		name = "Virtual machine level (heterogeneous) checkpointing, stop-and-sync"
	}
	header(fmt.Sprintf("Figure %d: %s", fig, name))

	var enc ckpt.Encoder = &ckpt.NativeEncoder{}
	if kind == ckpt.Portable {
		enc = &ckpt.PortableEncoder{}
	}
	fmt.Printf("empty-program checkpoint floor: %d KB per process (paper: %d KB)\n\n",
		enc.Overhead()>>10, map[ckpt.Kind]int{ckpt.Native: 632, ckpt.Portable: 260}[kind])
	fmt.Printf("%-14s %-10s %-14s %-12s\n", "ckpt size", "nodes", "time", "MB/s")

	sizes := []int{0, 256 << 10, 1 << 20, 4 << 20}
	type point struct{ x, y float64 }
	var pts []point
	for _, nodes := range []int{1, 2, 4} {
		for _, state := range sizes {
			secs, err := measureCheckpoint(nodes, state, kind, rounds)
			if err != nil {
				log.Fatalf("figure %d: %v", fig, err)
			}
			perRank := state + enc.Overhead()
			total := perRank * nodes
			fmt.Printf("%-14s %-10d %-14s %-12.1f\n",
				sizeLabel(perRank), nodes, fmtSecs(secs), float64(total)/secs/(1<<20))
			pts = append(pts, point{x: float64(total), y: secs})
		}
		fmt.Println()
	}
	// The paper: "checkpoint time grows linearly with the size of the
	// checkpointed data" and "a checkpoint every hour slows execution by
	// less than 1%".
	worst := 0.0
	for _, p := range pts {
		if p.y > worst {
			worst = p.y
		}
	}
	fmt.Printf("hourly-checkpoint overhead at the largest point: %.4f%% (paper: <1%%)\n",
		worst/3600*100)
}

// measureCheckpoint runs `rounds` stop-and-sync rounds of a Sizer app and
// returns the mean round time in seconds.
func measureCheckpoint(nodes, stateBytes int, kind ckpt.Kind, rounds int) (float64, error) {
	dir, err := os.MkdirTemp("", "starfish-bench-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	env, err := core.New(core.Options{
		Nodes: nodes, StoreDir: dir,
		HeartbeatEvery: 20 * time.Millisecond, FailAfter: 5 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	defer env.Shutdown()
	if err := env.WaitView(nodes, 15*time.Second); err != nil {
		return 0, err
	}
	const app = core.AppID(1)
	if err := env.Submit(core.Job{
		ID: app, Name: apps.SizerName, Args: apps.SizerArgs(stateBytes, 1<<40),
		Ranks: nodes, Protocol: core.StopAndSync, Encoder: kind,
	}); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, ok := env.Status(app); ok && st.Status.String() == "running" {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("application never started")
		}
		time.Sleep(time.Millisecond)
	}

	var lastIdx uint64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := env.Checkpoint(app); err != nil {
			return 0, err
		}
		for {
			line, err := env.CommittedLine(app)
			if err == nil && line[0] > lastIdx {
				lastIdx = line[0]
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return time.Since(start).Seconds() / float64(rounds), nil
}

// ---- figure 4i (reproduction extension) ----

// figure4i tables the per-epoch cost of checkpointing an 8 MiB image into
// the replicated memory store (k=2, so every epoch crosses the wire to one
// peer): the whole image every epoch, as the paper stores it, against the
// incremental pipeline (a position-addressed record of the changed blocks and
// a carry list every epoch), across block-aligned heap mutation rates.
func figure4i(rounds int) {
	header("Figure 4i: per-epoch checkpoint cost — whole images vs incremental pipeline")
	epochs := 8 * rounds
	if epochs < 8 {
		epochs = 8
	}
	const imgSize = 8 << 20
	const imgBlocks = imgSize / ckpt.DeltaBlockSize

	newPair := func(tag string) (*rstore.Store, func()) {
		fn := vni.NewFastnet(0)
		addr := func(id wire.NodeID) string { return fmt.Sprintf("f4i-%s-n%d", tag, id) }
		stores := make([]*rstore.Store, 2)
		for i := range stores {
			s, err := rstore.New(rstore.Config{
				Node: wire.NodeID(i + 1), Transport: fn,
				Addr: addr(wire.NodeID(i + 1)), PeerAddr: addr, Replicas: 2,
			})
			if err != nil {
				log.Fatal(err)
			}
			stores[i] = s
		}
		for _, s := range stores {
			s.UpdateView([]wire.NodeID{1, 2})
		}
		return stores[0], func() {
			for _, s := range stores {
				s.Close()
			}
		}
	}
	// Whole-block, content-unique rewrites of pct% of the image per epoch —
	// the paged-heap write pattern incremental checkpointing exploits.
	mutate := func(img []byte, pct int, epoch uint64, rng *rand.Rand) {
		n := imgBlocks * pct / 100
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			b := rng.Intn(imgBlocks)
			off := b * ckpt.DeltaBlockSize
			binary.BigEndian.PutUint64(img[off:], epoch<<24|uint64(b))
			binary.BigEndian.PutUint64(img[off+8:], rng.Uint64())
		}
	}
	type result struct {
		replicated, stored uint64
		perEpoch           time.Duration
	}
	run := func(tag string, pct int, usePipe bool) result {
		writer, cleanup := newPair(tag)
		defer cleanup()
		var backend ckpt.Backend = writer
		var pipe *ckpt.Pipeline
		if usePipe {
			pipe = ckpt.NewPipeline(writer, 0)
			backend = pipe
		}
		rng := rand.New(rand.NewSource(1))
		img := make([]byte, imgSize)
		rng.Read(img)
		if err := backend.Put(1, 0, 0, img, nil); err != nil {
			log.Fatal(err)
		}
		rep0 := writer.Stats().BytesReplicated
		var store0 uint64
		if pipe != nil {
			store0 = pipe.Stats().StoredBytes
		}
		start := time.Now()
		for n := uint64(1); n <= uint64(epochs); n++ {
			mutate(img, pct, n, rng)
			if err := backend.Put(1, 0, n, img, nil); err != nil {
				log.Fatal(err)
			}
			if err := backend.GC(1, 0, n); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		r := result{
			replicated: (writer.Stats().BytesReplicated - rep0) / uint64(epochs),
			stored:     imgSize,
			perEpoch:   elapsed / time.Duration(epochs),
		}
		if pipe != nil {
			r.stored = (pipe.Stats().StoredBytes - store0) / uint64(epochs)
		}
		return r
	}

	fmt.Printf("image: %s, %d epochs, collected up to the newest every epoch\n\n",
		sizeLabel(imgSize), epochs)
	fmt.Printf("%-10s %-10s %14s %14s %12s %10s\n",
		"mutation", "mode", "replicated/ep", "stored/ep", "time/epoch", "reduction")
	full := run("full", 10, false)
	fmt.Printf("%-10s %-10s %14s %14s %12v %10s\n", "any", "full",
		sizeLabel(int(full.replicated)), sizeLabel(int(full.stored)),
		full.perEpoch.Round(10*time.Microsecond), "1.0x")
	for _, pct := range []int{1, 5, 10, 20} {
		r := run(fmt.Sprintf("d%d", pct), pct, true)
		fmt.Printf("%-10s %-10s %14s %14s %12v %9.1fx\n",
			fmt.Sprintf("%d%%", pct), "delta",
			sizeLabel(int(r.replicated)), sizeLabel(int(r.stored)),
			r.perEpoch.Round(10*time.Microsecond),
			float64(full.replicated)/float64(r.replicated))
	}
	fmt.Println("\n(the full path ships the whole image every epoch; the pipeline ships")
	fmt.Println(" the changed blocks and a carry list naming the slots that hold the")
	fmt.Println(" rest, so a restore reads one record and the slots it names)")
}

// ---- figure 4r (reproduction extension) ----

// figure4r tables recovery time per rank against the three checkpoint
// storage backends: the shared-disk store of the paper, a surviving local
// RAM replica, and a peer's RAM replica fetched over the network.
func figure4r(rounds int) {
	header("Figure 4r: restart-time checkpoint fetch — disk vs replicated memory")
	reps := 10 * rounds
	if reps < 10 {
		reps = 10
	}

	fn := vni.NewFastnet(0)
	rsAddr := func(id wire.NodeID) string { return fmt.Sprintf("f4r-rs-n%d", id) }
	stores := make([]*rstore.Store, 2)
	for i := range stores {
		s, err := rstore.New(rstore.Config{
			Node: wire.NodeID(i + 1), Transport: fn,
			Addr: rsAddr(wire.NodeID(i + 1)), PeerAddr: rsAddr, Replicas: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		stores[i] = s
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	dir, err := os.MkdirTemp("", "starfish-f4r-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	disk, err := ckpt.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	restore := func(be ckpt.Backend) time.Duration {
		start := time.Now()
		line, err := be.CommittedLine(1)
		if err != nil {
			log.Fatal(err)
		}
		if _, _, err := be.Get(1, 0, line[0]); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}

	fmt.Printf("%-10s %14s %14s %14s %10s\n",
		"ckpt size", "disk", "rstore(local)", "rstore(peer)", "speedup")
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20, 8 << 20} {
		img := make([]byte, size)
		n := uint64(1)
		meta := &ckpt.Meta{Rank: 0, Index: n}
		for _, be := range []ckpt.Backend{disk, stores[0]} {
			if err := be.Put(1, 0, n, img, meta); err != nil {
				log.Fatal(err)
			}
			if err := be.CommitLine(1, ckpt.RecoveryLine{0: n}); err != nil {
				log.Fatal(err)
			}
		}
		var dDisk, dLocal, dPeer time.Duration
		for i := 0; i < reps; i++ {
			dDisk += restore(disk)
			dLocal += restore(stores[1]) // survivor's own RAM replica
			stores[1].Evict(1, 0, n)     // force the remote fetch
			dPeer += restore(stores[1])
		}
		dDisk /= time.Duration(reps)
		dLocal /= time.Duration(reps)
		dPeer /= time.Duration(reps)
		fmt.Printf("%-10s %14v %14v %14v %9.0fx\n", sizeLabel(size),
			dDisk.Round(10*time.Nanosecond), dLocal.Round(10*time.Nanosecond),
			dPeer.Round(10*time.Nanosecond), float64(dDisk)/float64(dLocal))
		for _, be := range []ckpt.Backend{disk, stores[0]} {
			if err := be.DropApp(1); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("\n(a failed rank restarts from a surviving node's RAM replica without")
	fmt.Println(" touching the file system; the peer column is the worst case, where")
	fmt.Println(" the replica lives on another node and crosses the network once)")
}

// ---- figure 5 ----

func figure5(reps int) {
	header("Figure 5: round-trip delay vs data size (paper: 86µs BIP / 552µs TCP at 1 byte)")
	sizes := []int{1, 64, 256, 1024, 4096, 16384, 65536}
	fmt.Printf("%-10s %14s %14s %10s\n", "size", "fastnet RTT", "tcp RTT", "ratio")
	for _, size := range sizes {
		fast := measureRTT(vni.NewFastnet(0),
			func(i int) string { return fmt.Sprintf("f5-%d-%d", size, i) }, size, reps)
		tcp := measureRTT(vni.NewTCP(), func(int) string { return "127.0.0.1:0" }, size, reps)
		fmt.Printf("%-10s %14v %14v %9.1fx\n",
			sizeLabel(size), fast.Round(10*time.Nanosecond), tcp.Round(10*time.Nanosecond),
			float64(tcp)/float64(fast))
	}
	fmt.Println("\n(the user-level transport beats the kernel TCP path; both grow linearly)")
}

func measureRTT(tr vni.Transport, addr func(int) string, size, reps int) time.Duration {
	c0, c1, cleanup := mpiPair(tr, addr)
	defer cleanup()
	done := echo(c1)
	buf := make([]byte, size)
	// Warm up connections.
	ping(c0, buf)
	start := time.Now()
	for i := 0; i < reps; i++ {
		ping(c0, buf)
	}
	rtt := time.Since(start) / time.Duration(reps)
	c1.Close()
	<-done
	return rtt
}

// echo returns every message rank 0 sends c back to it, forwarding a pooled
// payload as it is (SendOwned), until c closes; the returned channel closes
// when it has stopped.
func echo(c *mpi.Comm) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			data, st, err := c.Recv(0, 0)
			if err != nil {
				return
			}
			if st.Pooled {
				err = c.SendOwned(0, 0, data)
			} else {
				err = c.Send(0, 0, data)
			}
			if err != nil {
				return
			}
		}
	}()
	return done
}

// ping sends buf to rank 1 and waits for the reply, releasing it to the pool.
func ping(c *mpi.Comm, buf []byte) {
	if err := c.Send(1, 0, buf); err != nil {
		log.Fatal(err)
	}
	data, st, err := c.Recv(1, 0)
	if err != nil {
		log.Fatal(err)
	}
	if st.Pooled {
		wire.PutBuf(data)
	}
}

func mpiPair(tr vni.Transport, addr func(int) string) (*mpi.Comm, *mpi.Comm, func()) {
	return mpiPairTimer(tr, addr, nil)
}

func mpiPairTimer(tr vni.Transport, addr func(int) string, timer *vni.StageTimer) (*mpi.Comm, *mpi.Comm, func()) {
	nic0, err := vni.NewNIC(tr, addr(0), 0)
	if err != nil {
		log.Fatal(err)
	}
	nic1, err := vni.NewNIC(tr, addr(1), 0)
	if err != nil {
		log.Fatal(err)
	}
	addrs := map[wire.Rank]string{0: nic0.Addr(), 1: nic1.Addr()}
	c0, err := mpi.New(mpi.Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs, Timer: timer})
	if err != nil {
		log.Fatal(err)
	}
	c1, err := mpi.New(mpi.Config{App: 1, Rank: 1, Size: 2, NIC: nic1, Addrs: addrs})
	if err != nil {
		log.Fatal(err)
	}
	return c0, c1, func() {
		c0.Close()
		c1.Close()
		nic0.Close()
		nic1.Close()
	}
}

// ---- figure 6 ----

func figure6(reps int) {
	header("Figure 6: per-layer overhead for sending and receiving a message")
	fmt.Printf("%-10s %12s %12s %12s %12s\n",
		"size", "mpi(send)", "vni(send)", "vni(recv)", "mpi(recv)")
	for _, size := range []int{1, 1024, 65536} {
		timer := vni.NewStageTimer()
		c0, c1, cleanup := mpiPairTimer(vni.NewFastnet(0),
			func(i int) string { return fmt.Sprintf("f6-%d-%d", size, i) }, timer)
		done := echo(c1)
		buf := make([]byte, size)
		for i := 0; i < reps; i++ {
			ping(c0, buf)
		}
		fmt.Printf("%-10s %12v %12v %12v %12v\n", sizeLabel(size),
			timer.Mean(vni.StageMPISend), timer.Mean(vni.StageVNISend),
			timer.Mean(vni.StageVNIRecv), timer.Mean(vni.StageMPIRecv))
		c1.Close()
		<-done
		cleanup()
	}
	fmt.Println("\n(software layers are size-independent — messages are never copied")
	fmt.Println(" between layers; mpi(send) includes the single API-boundary staging")
	fmt.Println(" copy, the one place bytes move, so it scales with size; the pooled")
	fmt.Println(" payload then travels vni -> receiver without copying)")
}

// ---- table 1 ----

// ---- figure 7f (reproduction extension) ----

// figure7f measures time-to-recover — from the instant a rank-hosting node
// is killed until the restarted generation is running again — under 0%, 1%
// and 5% message loss on the control planes (gcs + rstore), injected by a
// seeded chaosnet. Results are written to BENCH_chaos.json.
func figure7f() {
	header("Figure 7f: time to recover a killed rank vs control-plane loss")
	const repsPerRate = 3
	rates := []float64{0, 0.01, 0.05}
	results := make(map[string]map[string]any, len(rates))

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "loss", "rep1", "rep2", "rep3", "median")
	for _, rate := range rates {
		samples := make([]time.Duration, 0, repsPerRate)
		for rep := 0; rep < repsPerRate; rep++ {
			seed := 0x7F000000 + int64(rate*1000)*100 + int64(rep)
			samples = append(samples, measureRecovery(rate, seed))
		}
		med := append([]time.Duration(nil), samples...)
		sort.Slice(med, func(i, j int) bool { return med[i] < med[j] })
		label := fmt.Sprintf("loss=%.0f%%", rate*100)
		fmt.Printf("%-10s %12v %12v %12v %12v\n", label,
			samples[0].Round(time.Millisecond), samples[1].Round(time.Millisecond),
			samples[2].Round(time.Millisecond), med[1].Round(time.Millisecond))
		ms := make([]float64, len(samples))
		for i, d := range samples {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		results[label] = map[string]any{
			"median_ms":  float64(med[1]) / float64(time.Millisecond),
			"samples_ms": ms,
		}
	}
	doc := map[string]any{
		"figure": "7f",
		"note": "time from killing a rank-hosting node to the restarted " +
			"generation running, vs drop rate on the gcs+rstore planes " +
			"(chaosnet, fixed seeds; detection budget 40 x 10ms probes)",
		"current": results,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_chaos.json", append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote BENCH_chaos.json")
	fmt.Println("(loss slows detection and the checkpoint fetch, not correctness:")
	fmt.Println(" gcs repairs its sequenced stream, rstore retries its RPCs)")
}

// measureRecovery runs one kill-recovery episode on a fresh 4-node chaos
// cluster and returns the crash-to-running duration.
func measureRecovery(loss float64, seed int64) time.Duration {
	dir, err := os.MkdirTemp("", "starfish-f7f-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	c, err := cluster.New(cluster.Options{
		Nodes:          4,
		StoreDir:       dir,
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      400 * time.Millisecond, // 40 probes
		ChaosSeed:      seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	waitViews(c, 4)
	if loss > 0 {
		ctl := c.Chaos()
		ctl.SetClassFaults("gcs", chaosnet.Faults{Drop: loss})
		ctl.SetClassFaults("rstore", chaosnet.Faults{Drop: loss})
	}
	// A long-running ring checkpointing to the replicated memory store; it
	// will not finish during the episode — recovery time is the metric.
	spec := proc.AppSpec{
		ID: 1, Name: apps.RingName, Args: apps.RingArgs(100_000_000),
		Ranks: 3, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		Policy: proc.PolicyRestart, CkptEverySteps: 1000, Store: ckpt.StoreMemory,
	}
	if err := c.Submit(spec); err != nil {
		log.Fatal(err)
	}
	if _, err := c.WaitCommittedLine(1, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := c.Crash(3); err != nil { // hosts rank 2 under round-robin placement
		log.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, ok := c.AnyDaemon().AppInfo(1)
		if ok && info.Gen >= 2 && info.Status == daemon.StatusRunning {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			log.Fatalf("figure 7f: app not running again 60s after the kill (status %v)", info.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitViews blocks until every daemon's main-group view has n members.
func waitViews(c *cluster.Cluster, n int) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, id := range c.Nodes() {
			d, err := c.Daemon(id)
			if err != nil || len(d.View().Members) != n {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatalf("figure 7f: view never reached %d members", n)
}

func table1() {
	header("Table 1: message types in Starfish — legal routes and an audited run")
	// Run a workload that exercises every message type: an MPI app with
	// periodic coordinated checkpoints, a coordination cast, a view
	// change, and management commands.
	wire.ResetMsgCounts()
	dir, err := os.MkdirTemp("", "starfish-table1-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	env, err := core.New(core.Options{Nodes: 3, StoreDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Shutdown()
	if err := env.WaitView(3, 15*time.Second); err != nil {
		log.Fatal(err)
	}
	if err := env.Submit(core.Job{
		ID: 1, Name: apps.RingName, Args: apps.RingArgs(2000), Ranks: 3,
		CheckpointEverySteps: 100, Policy: core.PolicyRestart,
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := env.Wait(1, 60*time.Second); err != nil {
		log.Fatal(err)
	}
	// A second workload exercises the remaining types: a trivially
	// parallel app under the notify policy loses a node, producing
	// lightweight-membership messages (view upcalls) and coordination
	// messages (the survivors' repartition announcements).
	if err := env.Submit(core.Job{
		// Enough work per chunk that the survivors are still stepping when
		// the failure is detected — a finished rank has nothing to announce.
		ID: 2, Name: apps.PartitionName, Args: apps.PartitionArgs(600, 1000000),
		Ranks: 3, Policy: core.PolicyNotify,
	}); err != nil {
		log.Fatal(err)
	}
	// Crash only once the app runs: a kill during the formation handshake
	// folds the lost ranks into the start info instead, and the survivors
	// then have nothing to announce.
	if err := env.Cluster().WaitStatus(2, daemon.StatusRunning, 15*time.Second); err != nil {
		log.Fatal(err)
	}
	if err := env.Crash(3); err != nil {
		log.Fatal(err)
	}
	if _, err := env.Wait(2, 60*time.Second); err != nil {
		log.Fatal(err)
	}
	counts := wire.MsgCounts()

	rows := []struct {
		t       wire.Type
		between string
	}{
		{wire.TControl, "Starfish daemons"},
		{wire.TCoordination, "Application processes through daemons"},
		{wire.TData, "Application processes through MPI and VNI modules using fast path"},
		{wire.TLWMembership, "Lightweight endpoint module and application processes"},
		{wire.TConfiguration, "Local daemon and application processes"},
		{wire.TCheckpoint, "Checkpoint/restart modules through daemons"},
	}
	fmt.Printf("%-24s %-66s %10s\n", "Message type", "Sent between (Table 1)", "observed")
	for _, r := range rows {
		fmt.Printf("%-24s %-66s %10d\n", r.t, r.between, counts[r.t])
	}
	fmt.Println("\n(data messages dominate and flow only on the fast path; the run also")
	fmt.Println(" validates the routing matrix enforced by wire.LegalRoute)")
}

// ---- table 2 ----

func table2() {
	header("Table 2: machine types validated with heterogeneous C/R (36 restart pairs)")
	fmt.Printf("%-28s %-18s %-15s %s\n", "Architecture type", "OS", "Representation", "Word length")
	for _, m := range svm.Machines {
		fmt.Printf("%-28s %-18s %-15s %d-bit\n", m.Name, m.OS, m.Order, m.WordBits)
	}
	fmt.Println()

	prog := svm.MustAssemble(`
        push 0
        storeg 0
loop:   loadg 1
        jz done
        loadg 0
        loadg 1
        add
        storeg 0
        loadg 1
        push 1
        sub
        storeg 1
        jmp loop
done:   loadg 0
        out
        halt`)
	ref := svm.New(svm.Machines[0], prog, 2)
	ref.Globals[1] = 2000
	if err := ref.Run(1 << 24); err != nil {
		log.Fatal(err)
	}
	enc := &ckpt.PortableEncoder{VMHeaderSize: 4096}
	ok := 0
	for _, src := range svm.Machines {
		m := svm.New(src, prog, 2)
		m.Globals[1] = 2000
		if _, err := m.RunSteps(4321); err != nil {
			log.Fatal(err)
		}
		img, err := enc.Encode(m.EncodeImage(), src)
		if err != nil {
			log.Fatal(err)
		}
		for _, dst := range svm.Machines {
			state, err := enc.Decode(img, dst)
			if err != nil {
				log.Fatal(err)
			}
			vm, err := svm.DecodeImage(state, dst)
			if err != nil {
				log.Fatal(err)
			}
			if err := vm.Run(1 << 24); err != nil {
				log.Fatal(err)
			}
			if len(vm.Output) == 1 && vm.Output[0] == ref.Output[0] && vm.Steps == ref.Steps {
				ok++
			} else {
				fmt.Printf("MISMATCH: %s -> %s\n", src.Name, dst.Name)
			}
		}
	}
	fmt.Printf("checkpoint/restart verified for %d/%d architecture pairs\n",
		ok, len(svm.Machines)*len(svm.Machines))
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%d KB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fmtSecs(s float64) string {
	return fmt.Sprintf("%.4f s", s)
}
