package daemon

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

func TestCmdEncodeDecode(t *testing.T) {
	spec := proc.AppSpec{
		ID: 7, Name: "ring", Args: []byte{1, 2, 3}, Ranks: 4,
		Protocol: ckpt.ChandyLamport, Encoder: ckpt.Native,
		CkptEverySteps: 50, Policy: proc.PolicyNotify, Owner: "alice",
	}
	c := Cmd{
		Kind: CmdRestart, App: 7, Node: 3, Rank: 2, Gen: 5,
		Err: "boom", Flag: true, Key: "k", Value: "v",
		Spec: &spec,
		Line: ckpt.RecoveryLine{0: 3, 1: 2},
	}
	got, err := decodeCmd(encodeCmd(&c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != CmdRestart || got.App != 7 || got.Node != 3 || got.Rank != 2 ||
		got.Gen != 5 || got.Err != "boom" || !got.Flag || got.Key != "k" || got.Value != "v" {
		t.Errorf("round trip = %+v", got)
	}
	if got.Spec == nil || got.Spec.Name != "ring" || got.Spec.Owner != "alice" {
		t.Errorf("spec = %+v", got.Spec)
	}
	if !got.Line.Equal(c.Line) {
		t.Errorf("line = %v", got.Line)
	}
	// Command without spec or line.
	c2 := Cmd{Kind: CmdSuspend, App: 9}
	got2, err := decodeCmd(encodeCmd(&c2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Spec != nil || got2.Line != nil || got2.Kind != CmdSuspend {
		t.Errorf("round trip = %+v", got2)
	}
	if _, err := decodeCmd([]byte{1, 2}); err == nil {
		t.Error("short command decoded")
	}
}

func TestCmdKindStrings(t *testing.T) {
	kinds := []CmdKind{CmdSubmit, CmdDelete, CmdSuspend, CmdResume, CmdCheckpoint,
		CmdRankDone, CmdRestart, CmdSetNodeEnabled, CmdSetParam}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
}

func TestLWMetaEncodeDecode(t *testing.T) {
	m := lwMeta{Gen: 3, Addrs: map[wire.Rank]string{2: "b", 0: "a", 5: "c"}}
	got, err := decodeLWMeta(encodeLWMeta(&m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 3 || len(got.Addrs) != 3 || got.Addrs[0] != "a" || got.Addrs[5] != "c" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeLWMeta([]byte{1}); err == nil {
		t.Error("short meta decoded")
	}
}

func TestRelayEncodeDecode(t *testing.T) {
	m := wire.Msg{Type: wire.TCheckpoint, Kind: ckpt.KAck, App: 3, Src: 1, Payload: []byte("x")}
	got, err := decodeRelay(encodeRelay(&m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != wire.TCheckpoint || got.Kind != ckpt.KAck || got.Src != 1 || string(got.Payload) != "x" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeRelay(nil); err == nil {
		t.Error("nil relay decoded")
	}
}

func TestPlaceRanks(t *testing.T) {
	nodes := []wire.NodeID{1, 2, 3}
	p := placeRanks(5, nodes)
	want := map[wire.Rank]wire.NodeID{0: 1, 1: 2, 2: 3, 3: 1, 4: 2}
	for r, n := range want {
		if p[r] != n {
			t.Errorf("rank %d placed on %d, want %d", r, p[r], n)
		}
	}
	if placeRanks(3, nil) != nil {
		t.Error("placement without nodes should be nil")
	}
	// One node takes everything.
	p = placeRanks(3, []wire.NodeID{9})
	for r := wire.Rank(0); r < 3; r++ {
		if p[r] != 9 {
			t.Errorf("rank %d on %d", r, p[r])
		}
	}
}

func TestQuickPlaceRanksProperties(t *testing.T) {
	// Properties: every rank is placed; load is balanced within 1; all
	// placements are eligible nodes.
	prop := func(ranksRaw, nodesRaw uint8) bool {
		ranks := int(ranksRaw%12) + 1
		nnodes := int(nodesRaw%5) + 1
		var nodes []wire.NodeID
		for i := 0; i < nnodes; i++ {
			nodes = append(nodes, wire.NodeID(i+1))
		}
		p := placeRanks(ranks, nodes)
		if len(p) != ranks {
			return false
		}
		load := map[wire.NodeID]int{}
		for r := wire.Rank(0); r < wire.Rank(ranks); r++ {
			n, ok := p[r]
			if !ok || n < 1 || int(n) > nnodes {
				return false
			}
			load[n]++
		}
		minL, maxL := ranks, 0
		for _, n := range nodes {
			l := load[n]
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
		return maxL-minL <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRestartPlacement(t *testing.T) {
	// The benchmark's case: ranks 0-2 on nodes 1-3 of four, node 2 dies. The
	// survivors stay, the lost rank takes the idle node.
	prev := placeRanks(3, []wire.NodeID{1, 2, 3, 4})
	got := restartPlacement(7, 3, prev, []wire.NodeID{1, 3, 4})
	if want := map[wire.Rank]wire.NodeID{0: 1, 1: 4, 2: 3}; !maps.Equal(got, want) {
		t.Errorf("placement = %v, want %v", got, want)
	}
	// Two equally idle nodes: the one the store ranks first for the rank's
	// checkpoints, because that is where a replica is.
	got = restartPlacement(7, 2, map[wire.Rank]wire.NodeID{0: 1, 1: 2}, []wire.NodeID{1, 3, 4})
	if want := rstore.HolderOrder(7, 1, []wire.NodeID{3, 4})[0]; got[0] != 1 || got[1] != want {
		t.Errorf("placement = %v, want rank 0 kept on 1 and rank 1 on %d", got, want)
	}
	if restartPlacement(7, 3, prev, nil) != nil {
		t.Error("placement without nodes should be nil")
	}
}

// TestRestartPlacementProperties draws failures over seeded clusters: some
// of the nodes a job was dealt onto have departed, some are disabled.
func TestRestartPlacementProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for draw := 0; draw < 1500; draw++ {
		ranks, n := 1+rng.Intn(12), 2+rng.Intn(15)
		all := make([]wire.NodeID, n)
		for i := range all {
			all[i] = wire.NodeID(i + 1)
		}
		prev := placeRanks(ranks, all)
		var nodes []wire.NodeID // still in the view and enabled
		for _, id := range all {
			if rng.Intn(4) != 0 {
				nodes = append(nodes, id)
			}
		}
		app := wire.AppID(rng.Uint32())
		got := restartPlacement(app, ranks, prev, nodes)
		if len(nodes) == 0 {
			if got != nil {
				t.Fatalf("draw %d: placed %v on no nodes", draw, got)
			}
			continue
		}
		// Identical at every daemon, however it lists the nodes.
		shuffled := slices.Clone(nodes)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if again := restartPlacement(app, ranks, prev, shuffled); !maps.Equal(again, got) {
			t.Fatalf("draw %d: placement depends on node order: %v vs %v", draw, again, got)
		}
		load := map[wire.NodeID]int{}
		for r := wire.Rank(0); int(r) < ranks; r++ {
			node, placed := got[r]
			if !placed || !slices.Contains(nodes, node) {
				t.Fatalf("draw %d: rank %d on %d, eligible %v", draw, r, node, nodes)
			}
			if slices.Contains(nodes, prev[r]) && node != prev[r] {
				t.Fatalf("draw %d: surviving rank %d moved %d -> %d", draw, r, prev[r], node)
			}
			load[node]++
		}
		// Lost ranks went to the least-loaded nodes: none sits on a node
		// more than one rank above the emptiest.
		lightest := ranks
		for _, id := range nodes {
			lightest = min(lightest, load[id])
		}
		for r := wire.Rank(0); int(r) < ranks; r++ {
			if !slices.Contains(nodes, prev[r]) && load[got[r]] > lightest+1 {
				t.Fatalf("draw %d: lost rank %d placed on node %d with %d ranks while a node has %d: %v", draw, r, got[r], load[got[r]], lightest, got)
			}
		}
	}
}

// TestDaemonPairLifecycle exercises a daemon pair directly (below the
// cluster harness): join, replicate a parameter, submit, finish.
func TestDaemonPairLifecycle(t *testing.T) {
	fn := vni.NewFastnet(0)
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node wire.NodeID, contact string) *Daemon {
		d, err := New(Config{
			Node: node, Transport: fn,
			GCSAddr: string(rune('A'+node)) + "-gcs", Contact: contact,
			Store: store, Arch: svm.Machines[0],
			HeartbeatEvery: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	d1 := mk(1, "")
	d2 := mk(2, d1.GCSAddr())

	deadline := time.Now().Add(10 * time.Second)
	for len(d2.View().Members) != 2 || len(d1.View().Members) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("daemons never formed a view")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !d1.leader() || d2.leader() {
		t.Error("leadership wrong")
	}

	if err := d2.SetParam("a", "b"); err != nil {
		t.Fatal(err)
	}
	for d1.Param("a") != "b" {
		if time.Now().After(deadline) {
			t.Fatal("param never replicated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unknown-app queries.
	if _, ok := d1.AppInfo(42); ok {
		t.Error("unknown app has info")
	}
	if err := d1.Submit(proc.AppSpec{Ranks: 0}); err == nil {
		t.Error("zero-rank submit accepted")
	}
	if err := d1.Migrate(42); err == nil {
		t.Error("migrate of unknown app succeeded")
	}

	// Submit the built-in VM app (no MPI traffic) and wait for Done.
	vm := &proc.VMApp{StepSlice: 100, NGlobals: 2, Globals: []int64{0, 50}, Source: `
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
done:   halt`}
	spec := proc.AppSpec{
		ID: 1, Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 2,
		Protocol: ckpt.Independent, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
	}
	if err := d1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for {
		info, ok := d2.AppInfo(1)
		if ok && info.Status == StatusDone {
			break
		}
		if ok && info.Status == StatusFailed {
			t.Fatalf("app failed: %s", info.Failure)
		}
		if time.Now().After(deadline) {
			t.Fatalf("app never finished (info=%+v ok=%v)", info, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ids := d1.Apps()
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("Apps() = %v", ids)
	}
}

func TestAppStatusStrings(t *testing.T) {
	for _, s := range []AppStatus{StatusLaunching, StatusRunning, StatusSuspended,
		StatusDone, StatusFailed, StatusRestarting} {
		if s.String() == "" {
			t.Errorf("status %d has no name", s)
		}
	}
}

func TestSubmitWithNoEligibleNodesFails(t *testing.T) {
	fn := vni.NewFastnet(0)
	store, _ := ckpt.NewStore(t.TempDir())
	d, err := New(Config{
		Node: 1, Transport: fn, GCSAddr: "noelig-gcs", Store: store,
		Arch: svm.Machines[0], HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.SetNodeEnabled(1, false); err != nil {
		t.Fatal(err)
	}
	// Wait for the disable command to apply.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		disabled := d.disabled[1]
		d.mu.Unlock()
		if disabled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disable never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	spec := proc.AppSpec{
		ID: 1, Name: proc.VMAppName, Args: proc.EncodeVMApp(&proc.VMApp{Source: "halt"}),
		Ranks: 1, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyKill,
	}
	if err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for {
		info, ok := d.AppInfo(1)
		if ok && info.Status == StatusFailed {
			if info.Failure != ErrNoNodes.Error() {
				t.Errorf("failure = %q", info.Failure)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("app not failed: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonsOverTCP runs the full daemon stack on real loopback TCP —
// group communication, lightweight-group relays, and application data all
// cross kernel sockets, as they would between physical workstations.
func TestDaemonsOverTCP(t *testing.T) {
	tcp := vni.NewTCP()
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataAddr := func(wire.AppID, uint32, wire.Rank) string { return "127.0.0.1:0" }
	d1, err := New(Config{
		Node: 1, Transport: tcp, GCSAddr: "127.0.0.1:0", Store: store,
		Arch: svm.Machines[0], DataAddr: dataAddr,
		HeartbeatEvery: 10 * time.Millisecond, FailAfter: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d1.Close)
	d2, err := New(Config{
		Node: 2, Transport: tcp, GCSAddr: "127.0.0.1:0", Contact: d1.GCSAddr(),
		Store: store, Arch: svm.Machines[1], DataAddr: dataAddr,
		HeartbeatEvery: 10 * time.Millisecond, FailAfter: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)

	deadline := time.Now().Add(15 * time.Second)
	for len(d1.View().Members) != 2 || len(d2.View().Members) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("TCP daemons never formed a view")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A communicating MPI app whose data path crosses TCP: the ring.
	// (Registered by the cluster tests' shared apps package would be a
	// cycle here, so use the pending-free built-in VM app plus a second
	// spec exercising checkpoints.)
	vm := &proc.VMApp{StepSlice: 200, NGlobals: 2, Globals: []int64{0, 3000}, Source: `
loop:   loadg 1
        jz done
        loadg 0
        push 1
        add
        storeg 0
        loadg 1
        push 1
        sub
        storeg 1
        jmp loop
done:   halt`}
	spec := proc.AppSpec{
		ID: 1, Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable,
		CkptEverySteps: 5, Policy: proc.PolicyRestart,
	}
	if err := d2.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for {
		info, ok := d1.AppInfo(1)
		if ok && info.Status == StatusDone {
			break
		}
		if ok && info.Status == StatusFailed {
			t.Fatalf("app failed: %s", info.Failure)
		}
		if time.Now().After(deadline) {
			t.Fatalf("app never finished: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Checkpoint rounds committed over TCP too.
	if _, err := store.CommittedLine(1); err != nil {
		t.Errorf("no committed line: %v", err)
	}
}

// TestDeleteDropsCapturePipeline: a delta app's capture pipeline — which holds
// each local rank's newest image as its diff base — is cached per app on every
// node that hosts a rank, and DELETE must drop it on every one of them, not
// only where the leader's DropApp runs.
func TestDeleteDropsCapturePipeline(t *testing.T) {
	fn := vni.NewFastnet(0)
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node wire.NodeID, contact string) *Daemon {
		d, err := New(Config{
			Node: node, Transport: fn,
			GCSAddr: string(rune('A'+node)) + "-gcs", Contact: contact,
			Store: store, Arch: svm.Machines[0],
			HeartbeatEvery: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	d1 := mk(1, "")
	daemons := []*Daemon{d1, mk(2, d1.GCSAddr())}
	deadline := time.Now().Add(20 * time.Second)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("a two-member view", func() bool {
		return len(daemons[0].View().Members) == 2 && len(daemons[1].View().Members) == 2
	})
	pipelines := func(d *Daemon) int {
		d.pipeMu.Lock()
		defer d.pipeMu.Unlock()
		return len(d.pipelines)
	}

	// Two ranks, one per node, spinning until deleted and checkpointing as
	// incremental records all the while.
	vm := &proc.VMApp{StepSlice: 50, NGlobals: 1, HeapWords: 4 << 10, Source: `
loop:   loadg 0
        push 1
        add
        storeg 0
        jmp loop`}
	spec := proc.AppSpec{
		ID: 7, Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
		CkptEverySteps: 3, DeltaCkpt: true,
	}
	if err := d1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor("a committed epoch", func() bool {
		_, err := d1.CommittedLine(spec.ID)
		return err == nil
	})
	for _, d := range daemons {
		if pipelines(d) != 1 {
			t.Fatalf("node %d caches %d pipelines for one running delta app", d.cfg.Node, pipelines(d))
		}
	}
	if err := d1.Delete(spec.ID); err != nil {
		t.Fatal(err)
	}
	for _, d := range daemons {
		d := d
		waitFor("the delete to apply", func() bool {
			_, known := d.AppInfo(spec.ID)
			return !known
		})
		if n := pipelines(d); n != 0 {
			t.Errorf("node %d (leader: %v) still caches %d capture pipelines after DELETE", d.cfg.Node, d.leader(), n)
		}
	}
}
