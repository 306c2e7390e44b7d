package vni

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"starfish/internal/wire"
)

// connPair dials through tc and returns the client and server ends.
func connPair(t *testing.T, tr Transport, addr string) (cli, srv Conn) {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	acc := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cli, err = tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	select {
	case srv = <-acc:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { srv.Close() })
	return cli, srv
}

// TestConnSendAfterCloseDoesNoWork: a closed connection must fail the send
// without copying the payload, without counting the message, and — for a
// pooled payload — without taking ownership, so the caller can still release
// or resend the buffer.
func TestConnSendAfterCloseDoesNoWork(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			cli, _ := connPair(t, tc.tr, tc.addr(30))
			cli.Close()

			payload := wire.GetBuf(512)
			m := wire.Msg{Type: wire.TData, Payload: payload, Pooled: true}
			before := wire.MsgCounts()
			_, bytesBefore := wire.CopyStats()

			err := cli.Send(&m)
			if err == nil {
				t.Fatal("Send on closed conn succeeded")
			}
			if tc.name == "fastnet" && !errors.Is(err, ErrClosed) {
				t.Errorf("Send error = %v, want ErrClosed", err)
			}
			if after := wire.MsgCounts(); after != before {
				t.Errorf("failed send incremented message counts: %v -> %v", before, after)
			}
			if _, bytesAfter := wire.CopyStats(); bytesAfter[wire.CopyClone] != bytesBefore[wire.CopyClone] {
				t.Error("failed send cloned the payload")
			}
			if !m.Pooled || m.Payload == nil {
				t.Fatal("failed send stole ownership of the pooled payload")
			}
			m.Release() // ownership stayed with us; this must not double-free
		})
	}
}

// TestNICSendAfterCloseNoStats: NIC.Send on a closed NIC is ErrClosed and
// leaves the traffic counters untouched.
func TestNICSendAfterCloseNoStats(t *testing.T) {
	fn := NewFastnet(0)
	a, err := NewNIC(fn, "stats-closed-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNIC(fn, "stats-closed-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(b.Addr(), &wire.Msg{Type: wire.TData, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	sentBefore, _ := a.Stats().Snapshot()

	if err := a.Send(b.Addr(), &wire.Msg{Type: wire.TData, Payload: []byte("y")}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	sentAfter, _ := a.Stats().Snapshot()
	if sentAfter != sentBefore {
		t.Errorf("failed send changed NIC stats: %v -> %v", sentBefore, sentAfter)
	}
}

// TestFastnetMoveSemantics: a pooled send over fastnet moves the buffer to
// the receiver — same backing array, no copy recorded — and strips the
// sender's reference.
func TestFastnetMoveSemantics(t *testing.T) {
	cli, srv := connPair(t, NewFastnet(0), "move")

	payload := wire.GetBuf(1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	orig := &payload[0]
	copiedBefore := wire.CopiedBytes()

	m := wire.Msg{Type: wire.TData, Tag: 9, Payload: payload, Pooled: true}
	if err := cli.Send(&m); err != nil {
		t.Fatal(err)
	}
	if m.Payload != nil || m.Pooled {
		t.Error("successful pooled send left the sender holding the payload")
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Pooled {
		t.Error("receiver did not inherit pool ownership")
	}
	if &got.Payload[0] != orig {
		t.Error("pooled payload was copied, not moved")
	}
	if got.Payload[1] != 1 || len(got.Payload) != 1024 {
		t.Errorf("payload corrupted in transit: len=%d", len(got.Payload))
	}
	if copied := wire.CopiedBytes() - copiedBefore; copied != 0 {
		t.Errorf("move recorded %d copied bytes, want 0", copied)
	}
	got.Release()
}

// TestFastnetCopyIsPooled: a non-pooled send over fastnet copies the payload
// once, into a pool buffer the receiver owns, and leaves the sender's buffer
// to the sender, who may overwrite it at once.
func TestFastnetCopyIsPooled(t *testing.T) {
	cli, srv := connPair(t, NewFastnet(0), "copy")
	for _, n := range []int{8, 1000, 40 << 10, 1<<20 + 3} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(n + i)
		}
		want := append([]byte(nil), payload...)
		copiedBefore := wire.CopiedBytes()
		m := wire.Msg{Type: wire.TData, Payload: payload}
		if err := cli.Send(&m); err != nil {
			t.Fatal(err)
		}
		if &m.Payload[0] != &payload[0] || m.Pooled {
			t.Errorf("size %d: a non-pooled send took the sender's payload", n)
		}
		for i := range payload {
			payload[i] = 0xEE // the sender reuses its buffer
		}
		got, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Pooled {
			t.Errorf("size %d: fastnet copy not pooled", n)
		}
		if !bytes.Equal(got.Payload, want) || &got.Payload[0] == &payload[0] {
			t.Errorf("size %d: the receiver's payload is not an equal copy", n)
		}
		if copied := wire.CopiedBytes() - copiedBefore; copied != uint64(n) {
			t.Errorf("size %d: %d bytes recorded as copied, want %d", n, copied, n)
		}
		got.Release()
	}
}

// TestTCPRecvDeliversPooled: the serialized transport reads payloads into
// pooled buffers and hands ownership to the receiver.
func TestTCPRecvDeliversPooled(t *testing.T) {
	cli, srv := connPair(t, NewTCP(), "127.0.0.1:0")

	// Cover both framing paths: below and above the writev threshold.
	for _, n := range []int{100, tcpWritevThreshold + 1} {
		payload := wire.GetBuf(n)
		for i := range payload {
			payload[i] = byte(n + i)
		}
		want := append([]byte(nil), payload...)
		m := wire.Msg{Type: wire.TData, Payload: payload, Pooled: true}
		if err := cli.Send(&m); err != nil {
			t.Fatal(err)
		}
		if m.Payload != nil || m.Pooled {
			t.Error("tcp Send did not consume the pooled payload")
		}
		got, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Pooled {
			t.Errorf("size %d: tcp Recv payload not pooled", n)
		}
		if !bytes.Equal(got.Payload, want) {
			t.Errorf("size %d: payload corrupted in transit", n)
		}
		got.Release()
	}
}

// TestTimerCopyAccounting: the per-stage copy/alloc counters accumulate and
// reset, including on a nil timer.
func TestTimerCopyAccounting(t *testing.T) {
	st := NewStageTimer()
	st.AddCopy(StageMPISend, 100)
	st.AddCopy(StageMPISend, 50)
	st.AddAlloc(StageMPISend)
	copies, b := st.Copies(StageMPISend)
	if copies != 2 || b != 150 {
		t.Errorf("Copies = %d/%d, want 2/150", copies, b)
	}
	if st.Allocs(StageMPISend) != 1 {
		t.Errorf("Allocs = %d, want 1", st.Allocs(StageMPISend))
	}
	st.Reset()
	if c, _ := st.Copies(StageMPISend); c != 0 || st.Allocs(StageMPISend) != 0 {
		t.Error("Reset did not clear copy/alloc counters")
	}

	var nilT *StageTimer
	nilT.AddCopy(StageVNISend, 1)
	nilT.AddAlloc(StageVNISend)
	if c, _ := nilT.Copies(StageVNISend); c != 0 || nilT.Allocs(StageVNISend) != 0 {
		t.Error("nil StageTimer misbehaved on copy accounting")
	}
}
