package proc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// TestRankGoroutines: a running rank costs two goroutines — its scheduler
// and its NIC's accept loop — however many connections it has. Its fastnet
// connections are pushed (no polling goroutine at either end), and its
// daemon calls it and is called back (no group-handler goroutine, and none
// in the daemon to read what it sends).
func TestRankGoroutines(t *testing.T) {
	spec := ringSpec(12, 4, 1<<40) // runs until aborted
	h := newHarness(t, spec)
	base := runtime.NumGoroutine()
	h.launch(nil)
	defer h.abortAll()

	// Once every rank has heard from its left neighbour, every connection
	// of the ring is up.
	h.mu.Lock()
	procs := append([]*Process(nil), h.procs...)
	h.mu.Unlock()
	deadline := time.Now().Add(20 * time.Second)
	for _, p := range procs {
		left := wire.Rank((int(p.rank) + spec.Ranks - 1) % spec.Ranks)
		for {
			p.cmu.Lock()
			comm := p.comm
			p.cmu.Unlock()
			if comm != nil && comm.RecvCounts()[left] > 10 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never heard from rank %d", p.rank, left)
			}
			time.Sleep(time.Millisecond)
		}
	}
	want := base + spec.Ranks*2
	var now int
	for deadline = time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if now = runtime.NumGoroutine(); now <= want {
			return
		}
	}
	t.Fatalf("%d ranks run %d goroutines, want %d", spec.Ranks, now-base, want-base)
}

// streamApp sends every other rank the numbers 1..rounds, one per step, and
// takes whatever has arrived without ever blocking. It finishes once it has
// sent all and received rounds messages from each peer, checking that they
// sum to (size-1)·(1+…+rounds), so a restart that lost or repeated a message
// fails. Rank 0 requests a checkpoint after its fiftieth send.
type streamApp struct {
	rank                   wire.Rank
	rounds, sent, got, sum int64
	// hold: the next Step waits for streamHold.release.
	hold bool
}

// streamHold, while release is set, holds rank's first Step after its
// snapshot until release is closed; held is closed when that Step begins to
// wait.
var streamHold struct {
	rank          wire.Rank
	held, release chan struct{}
}

const streamTag int32 = 9

// streamSnaps keeps each rank's last snapshot, which its Restore must be
// handed back exactly.
var streamSnaps struct {
	sync.Mutex
	state map[wire.Rank][]byte
}

func init() {
	Register("test-stream", func(args []byte) (App, error) {
		r := wire.NewReader(args)
		a := &streamApp{rounds: r.I64()}
		return a, r.Err()
	})
}

func (a *streamApp) Init(ctx *Ctx) error {
	a.rank = ctx.Rank
	return nil
}

func (a *streamApp) Restore(ctx *Ctx, state []byte) error {
	a.rank = ctx.Rank
	streamSnaps.Lock()
	want := streamSnaps.state[a.rank]
	streamSnaps.Unlock()
	if string(state) != string(want) {
		return fmt.Errorf("rank %d restored %x, snapshot was %x", a.rank, state, want)
	}
	r := wire.NewReader(state)
	a.rounds, a.sent, a.got, a.sum = r.I64(), r.I64(), r.I64(), r.I64()
	return r.Err()
}

func (a *streamApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(32)
	w.I64(a.rounds).I64(a.sent).I64(a.got).I64(a.sum)
	a.hold = streamHold.release != nil && a.rank == streamHold.rank
	streamSnaps.Lock()
	streamSnaps.state[a.rank] = append([]byte(nil), w.Bytes()...)
	streamSnaps.Unlock()
	return w.Bytes(), nil
}

func (a *streamApp) Step(ctx *Ctx) (bool, error) {
	if a.hold {
		a.hold = false
		close(streamHold.held)
		<-streamHold.release
	}
	peers := int64(ctx.Size - 1)
	if a.sent < a.rounds {
		w := wire.NewWriter(8)
		w.I64(a.sent + 1)
		for r := 0; r < ctx.Size; r++ {
			if dst := wire.Rank(r); dst != ctx.Rank {
				if err := ctx.Comm.Send(dst, streamTag, w.Bytes()); err != nil {
					return false, err
				}
			}
		}
		if a.sent++; ctx.Rank == 0 && a.sent == 50 {
			ctx.RequestCheckpoint()
		}
	}
	for {
		if _, ok := ctx.Comm.Iprobe(wire.AnyRank, streamTag); !ok {
			break
		}
		var b [8]byte
		if _, _, err := ctx.Comm.RecvInto(wire.AnyRank, streamTag, b[:]); err != nil {
			return false, err
		}
		a.got++
		a.sum += wire.NewReader(b[:]).I64()
	}
	if a.sent == a.rounds && a.got == peers*a.rounds {
		if want := peers * a.rounds * (a.rounds + 1) / 2; a.sum != want {
			return true, fmt.Errorf("rank %d: received sum %d, want %d", ctx.Rank, a.sum, want)
		}
		return true, nil
	}
	time.Sleep(100 * time.Microsecond)
	return false, nil
}

// markerGate wraps the harness's transport. A rank's first marker waits
// until every rank has sent one, so every rank takes its cut from the
// round's request, not from a marker; a marker to rank hold then waits until
// that rank's application is held in the Step after its cut, so its markers
// all arrive while its loop is inside Step. returned counts the marker sends
// that have returned. Accepted connections are not wrapped, so every message
// is still delivered by the send that carries it, and its marker callback
// runs on the sender's goroutine; the application's first step connected
// every pair, long before the round, so no marker waits for a connection to
// be accepted either.
type markerGate struct {
	vni.Transport
	ranks    int
	hold     wire.Rank
	held     chan struct{}
	mu       sync.Mutex
	arrived  map[wire.Rank]bool
	all      chan struct{}
	returned atomic.Int32
}

func (g *markerGate) Dial(addr string) (vni.Conn, error) {
	c, err := g.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

type gatedConn struct {
	vni.Conn
	g *markerGate
}

func (c *gatedConn) Send(m *wire.Msg) error {
	if m.Type != wire.TCheckpoint {
		return c.Conn.Send(m)
	}
	g := c.g
	g.mu.Lock()
	if !g.arrived[m.Src] {
		if g.arrived[m.Src] = true; len(g.arrived) == g.ranks {
			close(g.all)
		}
	}
	g.mu.Unlock()
	// Past 20 s the line never commits.
	select {
	case <-g.all:
	case <-time.After(20 * time.Second):
	}
	if m.Dst == g.hold {
		select {
		case <-g.held:
		case <-time.After(20 * time.Second):
		}
	}
	defer g.returned.Add(1)
	return c.Conn.Send(m)
}

// markerFreeStore is the harness's store, except that a rank's PutRecord
// first waits until every marker send of the round has returned. A store
// running on a marker's sender would wait for its own send: it gives up after
// 5 s, and the rank is recorded as having blocked its sender. entered records
// the ranks whose PutRecord has begun.
type markerFreeStore struct {
	ckpt.Backend
	g                *markerGate
	mu               sync.Mutex
	blocked, entered map[wire.Rank]bool
}

func (s *markerFreeStore) PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *ckpt.Meta) error {
	s.mu.Lock()
	s.entered[rank] = true
	s.mu.Unlock()
	sends := int32(s.g.ranks * (s.g.ranks - 1))
	for deadline := time.Now().Add(5 * time.Second); s.g.returned.Load() < sends; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.mu.Lock()
			s.blocked[rank] = true
			s.mu.Unlock()
			break
		}
	}
	return s.Backend.PutRecord(app, rank, n, rec, meta)
}

// TestChandyLamportFinalizesOnOwnRank: a Chandy–Lamport round finalizes, and
// is handed to the capture worker, only on its own rank's loop, at a safe
// point. On fastnet the matcher's intake runs inside the Send that carries a
// message, so a round's last marker arrives on its sender's goroutine; there
// it is only recorded. With rank 2 held inside the Step after its cut while
// every marker reaches it, rank 2 stores nothing until its Step returns. No
// store ever blocks a marker send; the line commits, and a restart from it
// hands each rank back exactly its snapshot and loses or repeats no message.
func TestChandyLamportFinalizesOnOwnRank(t *testing.T) {
	const ranks, held = 4, wire.Rank(2)
	streamSnaps.Lock()
	streamSnaps.state = make(map[wire.Rank][]byte)
	streamSnaps.Unlock()
	streamHold.rank, streamHold.held, streamHold.release = held, make(chan struct{}), make(chan struct{})
	defer func() { streamHold.release = nil }()
	w := wire.NewWriter(8)
	w.I64(500)
	spec := AppSpec{
		ID: 13, Name: "test-stream", Args: w.Bytes(), Ranks: ranks,
		Protocol: ckpt.ChandyLamport, Encoder: ckpt.Portable, Policy: PolicyRestart,
	}
	h := newHarness(t, spec)
	gate := &markerGate{Transport: h.tr, ranks: ranks, hold: held, held: streamHold.held,
		arrived: map[wire.Rank]bool{}, all: make(chan struct{})}
	store := &markerFreeStore{Backend: h.store, g: gate, blocked: map[wire.Rank]bool{}, entered: map[wire.Rank]bool{}}
	h.tr, h.back = gate, store
	h.launch(nil)
	released := false
	release := func() {
		if !released {
			released = true
			close(streamHold.release)
		}
	}
	defer release()

	select {
	case <-streamHold.held:
	case <-time.After(20 * time.Second):
		t.Fatalf("rank %d never took its cut", held)
	}
	h.mu.Lock()
	p := h.procs[held]
	h.mu.Unlock()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		p.cr.mu.Lock()
		in := len(p.cr.clMarkersIn)
		p.cr.mu.Unlock()
		if in == ranks-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: %d of %d markers in", held, in, ranks-1)
		}
	}
	// Give a finalize off the rank's loop time to show.
	time.Sleep(100 * time.Millisecond)
	store.mu.Lock()
	stored := store.entered[held]
	store.mu.Unlock()
	if stored {
		t.Fatalf("rank %d stored its checkpoint while its loop was inside Step", held)
	}
	release()

	line := h.waitForCommittedLine()
	h.abortAll()
	for r := 0; r < ranks; r++ {
		if line[wire.Rank(r)] != 1 {
			t.Fatalf("committed line %v, want checkpoint 1 at every rank", line)
		}
	}
	store.mu.Lock()
	for r, blocked := range store.blocked {
		if blocked {
			t.Errorf("rank %d: the store of its checkpoint blocked a marker send", r)
		}
	}
	store.mu.Unlock()

	streamHold.release = nil
	h.tr, h.back = gate.Transport, nil
	h.launch(line)
	h.waitAll()
}
