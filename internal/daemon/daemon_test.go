package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
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
	if got2.Spec != nil || got2.Line != nil || got2.Addrs != nil || got2.Kind != CmdSuspend {
		t.Errorf("round trip = %+v", got2)
	}
	if _, err := decodeCmd([]byte{1, 2}); err == nil {
		t.Error("short command decoded")
	}
}

// TestLWMetaEncodeDecode: a lightweight group's metadata — its generation
// and its ranks' addresses — travels in a host's CmdJoin, together with the
// stream contact from the creator.
func TestLWMetaEncodeDecode(t *testing.T) {
	j := Cmd{Kind: CmdJoin, App: 4, Node: 2, Gen: 3,
		Addrs: map[wire.Rank]string{2: "b", 0: "a", 5: "c"}, Contact: "lwg-a4-g3-n2"}
	enc := encodeCmd(&j)
	got, err := decodeCmd(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != CmdJoin || got.Node != 2 || got.Gen != 3 || got.Contact != j.Contact || !maps.Equal(got.Addrs, j.Addrs) {
		t.Errorf("join round trip = %+v", got)
	}
	if _, err := decodeCmd(enc[:len(enc)-1]); err == nil {
		t.Error("truncated join decoded")
	}
}

// hugeCountCmds are short command frames whose line or address count claims
// 2^24 entries.
func hugeCountCmds() [][]byte {
	head := encodeCmd(&Cmd{Kind: CmdJoin, App: 1})
	tail := 4 + 4 + 4 // line count, contact length, address count
	line := bytes.Clone(head[:len(head)-tail])
	line = binary.BigEndian.AppendUint32(line, 1<<24)
	addrs := bytes.Clone(head[:len(head)-4])
	addrs = binary.BigEndian.AppendUint32(addrs, 1<<24)
	return [][]byte{append(line, 0, 0, 0, 1), append(addrs, 0, 0, 0, 1)}
}

// TestDecodeCmdBoundsCounts: a command's counts are peer-supplied, so a short
// frame claiming 2^24 entries is refused without sizing anything by them.
func TestDecodeCmdBoundsCounts(t *testing.T) {
	for i, b := range hugeCountCmds() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeCmd(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("frame %d: a 2^24 count in %d bytes decoded", i, len(b))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("frame %d: decoding %d bytes allocated %d", i, len(b), n)
		}
	}
}

// FuzzDecodeCmd: any frame decodes to a command or an error, never a panic,
// and a decoded command re-encodes to a frame that decodes to the same
// encoding.
func FuzzDecodeCmd(f *testing.F) {
	spec := proc.AppSpec{ID: 7, Name: "ring", Ranks: 2}
	f.Add(encodeCmd(&Cmd{Kind: CmdSubmit, App: 7, Spec: &spec}))
	f.Add(encodeCmd(&Cmd{Kind: CmdRestart, App: 7, Line: ckpt.RecoveryLine{0: 3, 1: 2}}))
	f.Add(encodeCmd(&Cmd{Kind: CmdJoin, App: 7, Gen: 2, Addrs: map[wire.Rank]string{0: "a"}, Contact: "c"}))
	for _, b := range hugeCountCmds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := decodeCmd(b)
		if err != nil {
			return
		}
		enc := encodeCmd(&c)
		again, err := decodeCmd(enc)
		if err != nil {
			t.Fatalf("re-encoded command does not decode: %v", err)
		}
		if !bytes.Equal(encodeCmd(&again), enc) {
			t.Fatalf("command changed across a round trip: %+v vs %+v", c, again)
		}
	})
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
// group communication, the app's stream, and application data all cross
// kernel sockets, as they would between physical workstations.
func TestDaemonsOverTCP(t *testing.T) {
	tcp := vni.NewTCP()
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataAddr := func(wire.AppID, uint32, wire.Rank) string { return "127.0.0.1:0" }
	groupAddr := func(wire.AppID, uint32) string { return "127.0.0.1:0" }
	d1, err := New(Config{
		Node: 1, Transport: tcp, GCSAddr: "127.0.0.1:0", Store: store,
		Arch: svm.Machines[0], DataAddr: dataAddr, GroupAddr: groupAddr,
		HeartbeatEvery: 10 * time.Millisecond, FailAfter: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d1.Close)
	d2, err := New(Config{
		Node: 2, Transport: tcp, GCSAddr: "127.0.0.1:0", Contact: d1.GCSAddr(),
		Store: store, Arch: svm.Machines[1], DataAddr: dataAddr, GroupAddr: groupAddr,
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

// TestSubmitRejectsHugeRanks: a spec with more ranks than proc.MaxRanks, or
// none, is refused before it is cast — every daemon would size its placement
// and recovery lines from the count — while the submit that follows it is
// cast and applies alone.
func TestSubmitRejectsHugeRanks(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Node: 1, Transport: vni.NewFastnet(0), GCSAddr: "huge-gcs", Store: store,
		Arch: svm.Machines[0], HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	spec := func(id wire.AppID, ranks int) proc.AppSpec {
		return proc.AppSpec{
			ID: id, Name: proc.VMAppName, Args: proc.EncodeVMApp(&proc.VMApp{Source: "halt"}),
			Ranks: ranks, Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyKill,
		}
	}
	for i, ranks := range []int{2000000000, proc.MaxRanks + 1, 0, -1} {
		if err := d.Submit(spec(wire.AppID(10+i), ranks)); err == nil {
			t.Errorf("a spec of %d ranks was submitted", ranks)
		}
	}
	if err := d.Submit(spec(9, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, known := d.AppInfo(9); !known; _, known = d.AppInfo(9) {
		if time.Now().After(deadline) {
			t.Fatal("the valid submit never applied")
		}
		time.Sleep(time.Millisecond)
	}
	for i := range 4 {
		if _, known := d.AppInfo(wire.AppID(10 + i)); known {
			t.Errorf("app %d, refused, was cast", 10+i)
		}
	}
}

// slowApp steps forever, 20 ms a step, so an aborted process takes up to a
// step to notice.
type slowApp struct{}

const slowAppName = "daemon-test-slow"

func init() {
	proc.Register(slowAppName, func([]byte) (proc.App, error) { return slowApp{}, nil })
}

func (slowApp) Init(*proc.Ctx) error            { return nil }
func (slowApp) Restore(*proc.Ctx, []byte) error { return nil }
func (slowApp) Snapshot() ([]byte, error)       { return nil, nil }
func (slowApp) Step(*proc.Ctx) (bool, error)    { time.Sleep(20 * time.Millisecond); return false, nil }

// countingTransport counts the frames sent on the connections it dials.
type countingTransport struct {
	vni.Transport
	sent atomic.Int64
}

func (t *countingTransport) Dial(addr string) (vni.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

type countingConn struct {
	vni.Conn
	t *countingTransport
}

func (c *countingConn) Send(m *wire.Msg) error {
	c.t.sent.Add(1)
	return c.Conn.Send(m)
}

// TestCloseWaitsForProcesses: Close returns only once every process the
// daemon spawned has exited — those still running, those a DELETE already
// detached, and one whose checkpoint is being stored when the abort comes —
// so nothing a process does outlives its daemon: no store runs after Close.
// The stored app checkpoints every step into replicated memory whose second
// member takes pushes in and never answers, so each store lasts a few
// request timeouts; a store still running would send on.
func TestCloseWaitsForProcesses(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fn := vni.NewFastnet(0)
	rstoreAddr := func(id wire.NodeID) string { return fmt.Sprintf("close-rstore-%d", id) }
	mute, err := fn.Listen(rstoreAddr(2))
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			c, err := mute.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					m.Release()
				}
			}()
		}
	}()
	pushes := &countingTransport{Transport: fn}
	mem, err := rstore.New(rstore.Config{
		Node: 1, Transport: pushes, Addr: rstoreAddr(1), PeerAddr: rstoreAddr,
		Replicas: 2, RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	d, err := New(Config{
		Node: 1, Transport: fn, GCSAddr: "close-gcs", Store: store, Memory: mem,
		Arch: svm.Machines[0], HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	var procs []*proc.Process
	launch := func(app wire.AppID, st ckpt.StoreKind, every uint64) {
		t.Helper()
		spec := proc.AppSpec{ID: app, Name: slowAppName, Ranks: 2,
			Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart,
			Store: st, CkptEverySteps: every}
		if err := d.Submit(spec); err != nil {
			t.Fatal(err)
		}
		for info, _ := d.AppInfo(app); info.Status != StatusRunning; info, _ = d.AppInfo(app) {
			if time.Now().After(deadline) {
				t.Fatalf("app %d never ran: %+v", app, info)
			}
			time.Sleep(2 * time.Millisecond)
		}
		d.mu.Lock()
		for _, ep := range d.local[app] {
			procs = append(procs, ep.p)
		}
		d.mu.Unlock()
	}
	launch(1, ckpt.StoreDisk, 0)
	launch(2, ckpt.StoreDisk, 0)
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	for _, known := d.AppInfo(1); known; _, known = d.AppInfo(1) {
		if time.Now().After(deadline) {
			t.Fatal("delete never applied")
		}
		time.Sleep(time.Millisecond)
	}
	// The daemon's view is installed (its apps run): from here on the
	// memory store replicates to the mute member too.
	mem.UpdateView([]wire.NodeID{1, 2})
	launch(3, ckpt.StoreMemory, 1)
	for pushes.sent.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint was ever pushed")
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
	sent := pushes.sent.Load()
	if len(procs) != 6 {
		t.Fatalf("%d processes spawned, want 6", len(procs))
	}
	for _, p := range procs {
		select {
		case <-p.Done():
		default:
			t.Errorf("rank %d still running after Close", p.Rank())
		}
	}
	time.Sleep(200 * time.Millisecond)
	if now := pushes.sent.Load(); now != sent {
		t.Errorf("%d frames pushed after Close returned", now-sent)
	}
}

// TestLocalRankGoroutines: on a one-node cluster, each local rank an app
// adds costs two goroutines — the process's scheduler and its NIC's accept
// loop. The daemon runs none per process: it calls the process, and the
// process calls it back.
func TestLocalRankGoroutines(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Node: 1, Transport: vni.NewFastnet(0), GCSAddr: "goroutines-gcs", Store: store,
		Arch: svm.Machines[0], HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	deadline := time.Now().Add(20 * time.Second)
	// run submits an app of the given size and, once it runs, reports the
	// node's goroutines: the fewest seen over 100 ms, so that short-lived
	// ones (timers, probes) do not count.
	run := func(app wire.AppID, ranks int) int {
		t.Helper()
		spec := proc.AppSpec{ID: app, Name: slowAppName, Ranks: ranks,
			Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: proc.PolicyRestart}
		if err := d.Submit(spec); err != nil {
			t.Fatal(err)
		}
		for info, _ := d.AppInfo(app); info.Status != StatusRunning; info, _ = d.AppInfo(app) {
			if time.Now().After(deadline) {
				t.Fatalf("app %d never ran: %+v", app, info)
			}
			time.Sleep(2 * time.Millisecond)
		}
		least := runtime.NumGoroutine()
		for range 50 {
			time.Sleep(2 * time.Millisecond)
			least = min(least, runtime.NumGoroutine())
		}
		return least
	}
	// The first app starts whatever the daemon starts once; the next two
	// differ only in their size.
	before := run(1, 1)
	one := run(2, 1)
	three := run(3, 3)
	if extra := (three - one) - (one - before); extra != 2*2 {
		t.Fatalf("a one-rank app adds %d goroutines and a three-rank app %d: its two extra ranks cost %d, want 4",
			one-before, three-one, extra)
	}
}
