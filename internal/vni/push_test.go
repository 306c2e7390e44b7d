package vni

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/leakcheck"
	"starfish/internal/wire"
)

// TestPushFIFO: 8 goroutines send on each of 4 connections into one NIC
// whose consumer is installed before the first send or after its queue
// filled. The consumer sees every message once, each sender's in send order,
// and never two messages of one connection at the same time.
func TestPushFIFO(t *testing.T) {
	const conns, senders, per = 4, 8, 200
	for _, q := range []struct {
		name     string
		queueLen int
		deliver  bool // before the first send
	}{{"installed", 0, true}, {"switched", 4, false}} {
		t.Run(q.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			fn := NewFastnet(0)
			dst, err := NewNIC(fn, "fifo-dst", q.queueLen)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()

			var mu sync.Mutex
			next := make([][senders]uint64, conns)
			var inSink [conns]atomic.Bool
			seen := 0
			all := make(chan struct{})
			sink := func(m wire.Msg) {
				if !inSink[m.Src].CompareAndSwap(false, true) {
					t.Errorf("connection %d: two messages in the sink at once", m.Src)
				}
				defer inSink[m.Src].Store(false)
				mu.Lock()
				defer mu.Unlock()
				if want := next[m.Src][m.Tag]; m.Seq != want {
					t.Errorf("connection %d sender %d: got seq %d, want %d", m.Src, m.Tag, m.Seq, want)
				}
				next[m.Src][m.Tag] = m.Seq + 1
				if seen++; seen == conns*senders*per {
					close(all)
				}
			}
			if q.deliver {
				dst.Deliver(sink)
			}

			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				src, err := NewNIC(fn, fmt.Sprintf("fifo-src%d", c), 0)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(c, s int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							m := wire.Msg{Type: wire.TData, Src: wire.Rank(c), Tag: int32(s), Seq: uint64(i)}
							if err := src.Send(dst.Addr(), &m); err != nil {
								t.Errorf("send: %v", err)
								return
							}
						}
					}(c, s)
				}
			}
			if !q.deliver {
				for len(dst.Queue()) < q.queueLen {
					time.Sleep(10 * time.Microsecond)
				}
				dst.Deliver(sink)
			}
			wg.Wait()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				mu.Lock()
				t.Fatalf("sink saw %d of %d messages", seen, conns*senders*per)
			}
		})
	}
}

// TestPushBeforeInstall: what a dialer sends before the accepting end
// installs its sink — more than a connection used to buffer, with nobody
// reading — is handed over first and in order, then what follows. The sink
// turns some messages away, so the hand-over also runs through the drain.
func TestPushBeforeInstall(t *testing.T) {
	const early, late = 1500, 100
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	ln, err := fn.Listen("early")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := fn.Dial("early")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	sent := make(chan error, 1)
	go func() {
		for i := 0; i < early; i++ {
			if err := cli.Send(&wire.Msg{Type: wire.TData, Seq: uint64(i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d sends before the install blocked", early)
	}

	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []uint64
	all := make(chan struct{})
	srv.(pusher).push(func(m wire.Msg, wait bool) bool {
		if !wait && m.Seq%7 == 0 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if got = append(got, m.Seq); len(got) == early+late {
			close(all)
		}
		return true
	}, nil)
	for i := early; i < early+late; i++ {
		if err := cli.Send(&wire.Msg{Type: wire.TData, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("sink saw %d of %d messages", len(got), early+late)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("position %d: got seq %d", i, seq)
		}
	}
}

// TestFastnetCrashUnblocksFullSink: a sender stuck behind a full queue sink
// — the receiver's queue and what the connection holds past it are full —
// is released by the receiver's crash with ErrClosed, and the crash is
// reported on the sender's PeerDown by the connection's close, not by a
// poller.
func TestFastnetCrashUnblocksFullSink(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(2)
	dst, err := NewNIC(fn, "crash-dst", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := NewNIC(fn, "crash-src", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// A message through the queue: the connection is up and dst has it.
	if err := src.Send(dst.Addr(), &wire.Msg{Type: wire.TData}); err != nil {
		t.Fatal(err)
	}
	<-dst.Queue()

	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for {
			if err := src.Send(dst.Addr(), &wire.Msg{Type: wire.TData}); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
	}()
	// One in the queue, one in the drain's hands, two in the connection.
	for sent.Load() < 4 {
		time.Sleep(10 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := sent.Load(); n != 4 {
		t.Fatalf("%d sends completed into a 1-deep queue behind a 2-deep connection, want 4", n)
	}
	select {
	case err := <-done:
		t.Fatalf("the fifth send returned %v before the crash", err)
	default:
	}

	fn.Crash(dst.Addr())
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked send returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the crash did not release the blocked send")
	}
	select {
	case addr := <-src.PeerDown():
		if addr != dst.Addr() {
			t.Errorf("PeerDown reported %q, want %q", addr, dst.Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the crash was not reported on PeerDown")
	}
}

// TestFastnetConnsCostNoGoroutines: 64 connections among NICs, each carrying
// a message, add no goroutine to the NICs' own (an accept loop each).
func TestFastnetConnsCostNoGoroutines(t *testing.T) {
	const peers = 32 // one connection each way with the hub
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	hub, err := NewNIC(fn, "hub", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	nics := make([]*NIC, peers)
	for i := range nics {
		if nics[i], err = NewNIC(fn, fmt.Sprintf("spoke%d", i), 0); err != nil {
			t.Fatal(err)
		}
		defer nics[i].Close()
	}
	base := runtime.NumGoroutine()

	for _, n := range nics {
		if err := n.Send(hub.Addr(), &wire.Msg{Type: wire.TData}); err != nil {
			t.Fatal(err)
		}
		if err := hub.Send(n.Addr(), &wire.Msg{Type: wire.TData}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < peers; i++ {
		<-hub.Queue()
		<-nics[i].Queue()
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("%d connections added %d goroutines", 2*peers, now-base)
	}
}

// TestFastnetListenerCloseSeversUnaccepted: a connection nobody accepted is
// closed with its listener, so its dialer stops sending into a buffer that
// no reader will ever drain.
func TestFastnetListenerCloseSeversUnaccepted(t *testing.T) {
	fn := NewFastnet(0)
	ln, err := fn.Listen("unaccepted")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fn.Dial("unaccepted")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(&wire.Msg{Type: wire.TData}); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if err := cli.Send(&wire.Msg{Type: wire.TData}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after the listener closed = %v, want ErrClosed", err)
	}
}
