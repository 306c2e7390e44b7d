package vni

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"starfish/internal/leakcheck"
	"starfish/internal/wire"
)

// transports returns one instance of each transport plus an address factory
// appropriate for it, so every test runs against both implementations.
func transports() []struct {
	name string
	tr   Transport
	addr func(i int) string
} {
	fn := NewFastnet(0)
	return []struct {
		name string
		tr   Transport
		addr func(i int) string
	}{
		{"fastnet", fn, func(i int) string { return fmt.Sprintf("node%d", i) }},
		{"tcp", NewTCP(), func(int) string { return "127.0.0.1:0" }},
	}
}

func TestConnSendRecv(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := tc.tr.Listen(tc.addr(1))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			type acceptResult struct {
				c   Conn
				err error
			}
			acc := make(chan acceptResult, 1)
			go func() {
				c, err := ln.Accept()
				acc <- acceptResult{c, err}
			}()

			cli, err := tc.tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ar := <-acc
			if ar.err != nil {
				t.Fatal(ar.err)
			}
			srv := ar.c
			defer srv.Close()

			want := wire.Msg{Type: wire.TData, App: 1, Src: 0, Dst: 1, Tag: 42, Seq: 7, Payload: []byte("ping")}
			if err := cli.Send(&want); err != nil {
				t.Fatal(err)
			}
			got, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Tag != 42 || got.Seq != 7 || !bytes.Equal(got.Payload, []byte("ping")) {
				t.Errorf("got %+v", got)
			}

			// And the reverse direction.
			reply := wire.Msg{Type: wire.TData, Tag: 43, Payload: []byte("pong")}
			if err := srv.Send(&reply); err != nil {
				t.Fatal(err)
			}
			got, err = cli.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Tag != 43 {
				t.Errorf("reverse direction got %+v", got)
			}
		})
	}
}

func TestConnSenderMayReuseBuffer(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			ln, _ := tc.tr.Listen(tc.addr(2))
			defer ln.Close()
			acc := make(chan Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					acc <- c
				}
			}()
			cli, err := tc.tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv := <-acc
			defer srv.Close()

			buf := []byte{1, 1, 1, 1}
			m := wire.Msg{Type: wire.TData, Payload: buf}
			if err := cli.Send(&m); err != nil {
				t.Fatal(err)
			}
			// Scribble over the buffer after Send returned.
			for i := range buf {
				buf[i] = 9
			}
			got, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Payload, []byte{1, 1, 1, 1}) {
				t.Errorf("payload corrupted by sender buffer reuse: %v", got.Payload)
			}
		})
	}
}

func TestConnOrdering(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			ln, _ := tc.tr.Listen(tc.addr(3))
			defer ln.Close()
			acc := make(chan Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					acc <- c
				}
			}()
			cli, err := tc.tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv := <-acc
			defer srv.Close()

			const n = 500
			go func() {
				for i := 0; i < n; i++ {
					m := wire.Msg{Type: wire.TData, Seq: uint64(i)}
					if err := cli.Send(&m); err != nil {
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				got, err := srv.Recv()
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				if got.Seq != uint64(i) {
					t.Fatalf("out of order: got seq %d at position %d", got.Seq, i)
				}
			}
		})
	}
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			ln, _ := tc.tr.Listen(tc.addr(4))
			defer ln.Close()
			acc := make(chan Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					acc <- c
				}
			}()
			cli, err := tc.tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			srv := <-acc

			errc := make(chan error, 1)
			go func() {
				_, err := srv.Recv()
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cli.Close()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("Recv returned nil error after peer close")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock after peer close")
			}
			srv.Close()
		})
	}
}

func TestDialUnknownAddress(t *testing.T) {
	fn := NewFastnet(0)
	if _, err := fn.Dial("nowhere"); err == nil {
		t.Error("fastnet Dial to unknown address succeeded")
	}
	tcp := NewTCP()
	if _, err := tcp.Dial("127.0.0.1:1"); err == nil {
		t.Error("tcp Dial to closed port succeeded")
	}
}

func TestFastnetDuplicateListen(t *testing.T) {
	fn := NewFastnet(0)
	if _, err := fn.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Listen("a"); err == nil {
		t.Error("duplicate Listen succeeded")
	}
}

func TestFastnetCrashSeversPeers(t *testing.T) {
	fn := NewFastnet(0)
	ln, _ := fn.Listen("victim")
	acc := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cli, err := fn.Dial("victim")
	if err != nil {
		t.Fatal(err)
	}
	<-acc

	fn.Crash("victim")

	if err := cli.Send(&wire.Msg{Type: wire.TData}); err == nil {
		t.Error("Send to crashed node succeeded")
	}
	if _, err := cli.Recv(); err == nil {
		t.Error("Recv from crashed node succeeded")
	}
	// The address becomes free again (node restart).
	if _, err := fn.Listen("victim"); err != nil {
		t.Errorf("re-Listen after crash failed: %v", err)
	}
}

func TestNICSendReceive(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewNIC(tc.tr, tc.addr(10), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewNIC(tc.tr, tc.addr(11), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			m := wire.Msg{Type: wire.TData, Tag: 5, Payload: []byte("hi")}
			if err := a.Send(b.Addr(), &m); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-b.Queue():
				if got.Tag != 5 || string(got.Payload) != "hi" {
					t.Errorf("got %+v", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("message never arrived")
			}

			// Reply over the reverse path (separate dial).
			r := wire.Msg{Type: wire.TData, Tag: 6}
			if err := b.Send(a.Addr(), &r); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-a.Queue():
				if got.Tag != 6 {
					t.Errorf("got %+v", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("reply never arrived")
			}
		})
	}
}

func TestNICConcurrentSenders(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := NewNIC(tc.tr, tc.addr(20), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()

			const senders, per = 4, 100
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				src, err := NewNIC(tc.tr, tc.addr(21+s), 0)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				wg.Add(1)
				go func(src *NIC, id int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m := wire.Msg{Type: wire.TData, Src: wire.Rank(id), Seq: uint64(i)}
						if err := src.Send(dst.Addr(), &m); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(src, s)
			}
			wg.Wait()

			// Per-sender FIFO must hold even with interleaving.
			next := make([]uint64, senders)
			for i := 0; i < senders*per; i++ {
				select {
				case m := <-dst.Queue():
					if m.Seq != next[m.Src] {
						t.Fatalf("sender %d: got seq %d want %d", m.Src, m.Seq, next[m.Src])
					}
					next[m.Src]++
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d/%d messages arrived", i, senders*per)
				}
			}
		})
	}
}

func TestNICStats(t *testing.T) {
	fn := NewFastnet(0)
	a, _ := NewNIC(fn, "sa", 0)
	defer a.Close()
	b, _ := NewNIC(fn, "sb", 0)
	defer b.Close()

	for i := 0; i < 3; i++ {
		a.Send(b.Addr(), &wire.Msg{Type: wire.TData, Payload: []byte("xy")})
	}
	a.Send(b.Addr(), &wire.Msg{Type: wire.TControl})

	deadline := time.After(5 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case <-b.Queue():
		case <-deadline:
			t.Fatal("messages missing")
		}
	}
	sent, _ := a.Stats().Snapshot()
	_, recv := b.Stats().Snapshot()
	if sent[wire.TData] != 3 || sent[wire.TControl] != 1 {
		t.Errorf("sender stats = %v", sent)
	}
	if recv[wire.TData] != 3 || recv[wire.TControl] != 1 {
		t.Errorf("receiver stats = %v", recv)
	}
}

func TestNICCloseIdempotentAndRejects(t *testing.T) {
	fn := NewFastnet(0)
	a, _ := NewNIC(fn, "ca", 0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("anywhere", &wire.Msg{Type: wire.TData}); err != ErrClosed {
		t.Errorf("Send after Close: %v, want ErrClosed", err)
	}
	if err := a.Connect("anywhere"); err != ErrClosed {
		t.Errorf("Connect after Close: %v, want ErrClosed", err)
	}
}

func TestStageTimer(t *testing.T) {
	st := NewStageTimer()
	st.Add(StageMPISend, 10*time.Microsecond)
	st.Add(StageMPISend, 30*time.Microsecond)
	if got := st.Mean(StageMPISend); got != 20*time.Microsecond {
		t.Errorf("Mean = %v, want 20µs", got)
	}
	if got := st.Count(StageMPISend); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := st.Mean(StageAppRecv); got != 0 {
		t.Errorf("unrecorded stage Mean = %v, want 0", got)
	}
	st.Reset()
	if st.Count(StageMPISend) != 0 {
		t.Error("Reset did not clear counts")
	}

	// A nil timer must be safe everywhere (profiling off).
	var nilT *StageTimer
	nilT.Add(StageVNISend, time.Second)
	if nilT.Mean(StageVNISend) != 0 || nilT.Count(StageVNISend) != 0 {
		t.Error("nil StageTimer misbehaved")
	}
	nilT.Reset()
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < StageCount; s++ {
		name := s.String()
		if name == "" || name == "unknown-stage" || seen[name] {
			t.Errorf("stage %d has bad name %q", s, name)
		}
		seen[name] = true
	}
}

func TestQuickFastnetPayloadIntegrity(t *testing.T) {
	fn := NewFastnet(0)
	ln, _ := fn.Listen("q")
	acc := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cli, err := fn.Dial("q")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acc
	defer cli.Close()

	prop := func(payload []byte, tag int32, seq uint64) bool {
		m := wire.Msg{Type: wire.TData, Tag: tag, Seq: seq, Payload: payload}
		if err := cli.Send(&m); err != nil {
			return false
		}
		got, err := srv.Recv()
		if err != nil {
			return false
		}
		return got.Tag == tag && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// countingTransport counts dials and can fail the first failN of them,
// for exercising the NIC's single-flight and retry logic.
type countingTransport struct {
	Transport
	mu    sync.Mutex
	dials int
	failN int
}

func (c *countingTransport) Dial(addr string) (Conn, error) {
	c.mu.Lock()
	c.dials++
	fail := c.dials <= c.failN
	c.mu.Unlock()
	if fail {
		return nil, ErrNoRoute
	}
	return c.Transport.Dial(addr)
}

func (c *countingTransport) dialCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials
}

func TestNICConnectSingleFlight(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	peer, err := NewNIC(fn, "peer", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ct := &countingTransport{Transport: fn}
	n, err := NewNIC(ct, "self", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Many goroutines race Connect to the same address: exactly one dial
	// must happen, and nobody may observe an error.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- n.Connect("peer")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ct.dialCount(); got != 1 {
		t.Fatalf("%d dials for 32 concurrent Connects, want 1", got)
	}
}

func TestNICConnectRetriesTransientFailure(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	peer, err := NewNIC(fn, "peer", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ct := &countingTransport{Transport: fn, failN: 2}
	n, err := NewNIC(ct, "self", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetDialRetry(4, 100*time.Microsecond, time.Second)

	if err := n.Connect("peer"); err != nil {
		t.Fatalf("Connect with 2 transient failures: %v", err)
	}
	if got := ct.dialCount(); got != 3 {
		t.Fatalf("%d dials, want 3 (two failures + success)", got)
	}
}

func TestNICConnectCooldownFailsFast(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	ct := &countingTransport{Transport: fn, failN: 1 << 30}
	n, err := NewNIC(ct, "self", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetDialRetry(3, 100*time.Microsecond, time.Minute)

	if err := n.Connect("nowhere"); err != ErrNoRoute {
		t.Fatalf("Connect to dead addr: %v, want ErrNoRoute", err)
	}
	dialsAfterRound := ct.dialCount()
	if dialsAfterRound != 3 {
		t.Fatalf("%d dials in first round, want 3", dialsAfterRound)
	}
	// During the cooldown the cached error comes back without dialing.
	if err := n.Connect("nowhere"); err != ErrNoRoute {
		t.Fatalf("cooldown Connect: %v, want ErrNoRoute", err)
	}
	if got := ct.dialCount(); got != dialsAfterRound {
		t.Fatalf("cooldown Connect dialed (%d total)", got)
	}
}

func TestNICCloseDuringDialBackoff(t *testing.T) {
	fn := NewFastnet(0)
	ct := &countingTransport{Transport: fn, failN: 1 << 30}
	n, err := NewNIC(ct, "self", 0)
	if err != nil {
		t.Fatal(err)
	}
	n.SetDialRetry(10, 50*time.Millisecond, time.Minute)

	done := make(chan error, 1)
	go func() { done <- n.Connect("nowhere") }()
	time.Sleep(10 * time.Millisecond)
	n.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Connect succeeded against a dead addr")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Connect did not return after NIC close")
	}
}

// TestNICRedialsAfterPeerClose: a connection the remote side closed must not
// stay registered — before the poller retired it, every later Send to that
// address failed with ErrClosed without ever redialling, so one reset made a
// live peer unreachable for good. The close is reported on PeerDown, the
// next Send redials and delivers, and an address nobody listens on any more
// fails fast instead of sleeping in a dial backoff.
func TestNICRedialsAfterPeerClose(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t, 0)
			ln, err := tc.tr.Listen(tc.addr(1))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			nic, err := NewNIC(tc.tr, tc.addr(2), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer nic.Close()
			// The policy of a caller that cannot afford to sleep (the gcs
			// engine): one dial per send, fail fast for a while after.
			nic.SetDialRetry(1, 0, time.Minute)

			// deliver sends one message and returns the far end of the
			// connection it arrived on.
			deliver := func(tag int32) Conn {
				t.Helper()
				if err := nic.Send(ln.Addr(), &wire.Msg{Type: wire.TData, Tag: tag}); err != nil {
					t.Fatalf("send %d: %v", tag, err)
				}
				c, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				m, err := c.Recv()
				if err != nil || m.Tag != tag {
					t.Fatalf("recv %d: %+v, %v", tag, m, err)
				}
				return c
			}
			deliver(1).Close() // the remote side hangs up

			select {
			case addr := <-nic.PeerDown():
				if addr != ln.Addr() {
					t.Fatalf("PeerDown reported %q, want %q", addr, ln.Addr())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the poller never reported the closed connection")
			}
			deliver(2).Close() // a fresh connection, not the corpse
			<-nic.PeerDown()

			// Now the peer is gone for good.
			ln.Close()
			start := time.Now()
			if err := nic.Send(ln.Addr(), &wire.Msg{Type: wire.TData}); err == nil {
				t.Fatal("send to an address nobody listens on succeeded")
			}
			if err := nic.Send(ln.Addr(), &wire.Msg{Type: wire.TData}); err == nil {
				t.Fatal("send during the dial cooldown succeeded")
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("two sends to a dead address blocked for %v", took)
			}
			select {
			case addr := <-nic.PeerDown():
				t.Fatalf("a failed dial was reported as peer-down for %q", addr)
			default:
			}
		})
	}
}

// TestNICLocalDisconnectIsNotPeerDown: dropping a connection from this side
// (Disconnect, Close) is no evidence about the peer.
func TestNICLocalDisconnectIsNotPeerDown(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	a, err := NewNIC(fn, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNIC(fn, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send("b", &wire.Msg{Type: wire.TData}); err != nil {
		t.Fatal(err)
	}
	<-b.Queue()
	a.Disconnect("b")
	// The poller of the dropped connection exits on the close; give it the
	// chance to misreport before looking.
	if err := a.Send("b", &wire.Msg{Type: wire.TData}); err != nil {
		t.Fatal(err)
	}
	<-b.Queue()
	select {
	case addr := <-a.PeerDown():
		t.Fatalf("local Disconnect reported as peer-down for %q", addr)
	case <-time.After(20 * time.Millisecond):
	}
}
