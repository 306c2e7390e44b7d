package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/daemon"
	"starfish/internal/evstore"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// pushHold interposes on every node's replicated-store listener. Once armed,
// it holds each frame a holder receives about one rank's checkpoints past an
// index — the replica push of that rank's next epoch — until released.
type pushHold struct {
	app wire.AppID

	mu      sync.Mutex
	armed   bool
	rank    wire.Rank
	after   uint64
	slot    uint64        // the first slot held
	held    chan struct{} // closed when the first frame is held
	release chan struct{}
}

func newPushHold(app wire.AppID) *pushHold {
	return &pushHold{app: app, held: make(chan struct{}), release: make(chan struct{})}
}

func (h *pushHold) arm(rank wire.Rank, after uint64) {
	h.mu.Lock()
	h.armed, h.rank, h.after = true, rank, after
	h.mu.Unlock()
}

// holds reports whether m is to be held, noting the first.
func (h *pushHold) holds(m *wire.Msg) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.armed || m.App != h.app || wire.Rank(m.Src) != h.rank || m.Seq <= h.after {
		return false
	}
	if h.slot == 0 {
		h.slot = m.Seq
		close(h.held)
	}
	return true
}

func (h *pushHold) interpose(_ wire.NodeID, tr vni.Transport) vni.Transport {
	return &holdTransport{Transport: tr, h: h}
}

type holdTransport struct {
	vni.Transport
	h *pushHold
}

func (t *holdTransport) Listen(addr string) (vni.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil || !strings.HasPrefix(addr, "rstore-") {
		return l, err
	}
	return &holdListener{Listener: l, h: t.h}, nil
}

type holdListener struct {
	vni.Listener
	h *pushHold
}

func (l *holdListener) Accept() (vni.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &holdConn{Conn: c, h: l.h}, nil
}

type holdConn struct {
	vni.Conn
	h *pushHold
}

func (c *holdConn) Recv() (wire.Msg, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.h.holds(&m) {
		<-c.h.release
	}
	return m, err
}

// TestKillWhileEpochUnstored: a rank's capture worker holds an epoch whose
// replica push is held at the holder, so the rank has not acked it, and the
// rank's node is killed in that window. The line of that epoch must never
// commit, and the restart must restore every rank from the line committed
// before it and finish with the exact result (the ring checks its value).
func TestKillWhileEpochUnstored(t *testing.T) {
	const app = 49
	hold := newPushHold(app)
	c, err := New(Options{
		Nodes: 3, StoreDir: t.TempDir(), Logf: t.Logf,
		HeartbeatEvery: 10 * time.Millisecond, FailAfter: 600 * time.Millisecond,
		Interpose: hold.interpose,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	defer func() {
		select {
		case <-hold.release:
		default:
			close(hold.release)
		}
	}()
	waitMainView(t, c, 3)

	spec := ringSpec(app, 3, 150000)
	spec.Store = ckpt.StoreMemory
	spec.CkptEverySteps = 1000
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	line, err := c.WaitCommittedLine(app, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := c.AnyDaemon().AppInfo(app)
	if !ok {
		t.Fatal("app vanished")
	}
	var rank wire.Rank
	for r, node := range info.Placement {
		if node > info.Placement[rank] {
			rank = r
		}
	}
	victim := info.Placement[rank]
	hold.arm(rank, line[rank])
	select {
	case <-hold.held:
	case <-time.After(20 * time.Second):
		t.Fatal("the rank never pushed another epoch")
	}
	held := hold.slot

	// The rank has not acked: no line reaches the held epoch.
	time.Sleep(100 * time.Millisecond)
	before, err := c.AnyDaemon().CommittedLine(app)
	if err != nil {
		t.Fatal(err)
	}
	if before[rank] >= held {
		t.Fatalf("line %v committed with rank %d's checkpoint %d still held", before, rank, held)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	close(hold.release)

	final, err := c.WaitApp(app, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != daemon.StatusDone {
		t.Fatalf("status = %v, failure = %q", final.Status, final.Failure)
	}
	if final.Gen < 2 {
		t.Fatalf("gen = %d, want a restart", final.Gen)
	}
	// Every rank of the restart restored the line committed before the
	// held epoch.
	q, err := evstore.ParseQuery(fmt.Sprintf("component=proc kind=restore app=%d", app))
	if err != nil {
		t.Fatal(err)
	}
	restored := map[wire.Rank]uint64{}
	for _, id := range c.Nodes() {
		ev, err := c.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ev.Query(q) {
			restored[wire.Rank(r.Rank)] = attr(t, &r, "index")
		}
	}
	for r := range spec.Ranks {
		if got, want := restored[wire.Rank(r)], before[wire.Rank(r)]; got != want {
			t.Errorf("rank %d restored checkpoint %d, want %d (line %v, held %d)", r, got, want, before, held)
		}
	}
}
