package vni

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/leakcheck"
	"starfish/internal/wire"
)

// TestDeliverSwitch: senders stream numbered messages at one NIC while it
// switches from queueing to direct delivery at a random point of the stream.
// Every message reaches the sink exactly once, a sender's messages reach it
// in send order — the queued ones ahead of the ones its poller hands over
// afterwards — and nothing is left in the queue. With the small queue the
// pollers are blocked on a full queue when the switch comes.
func TestDeliverSwitch(t *testing.T) {
	const senders, per = 3, 200
	for _, tc := range transports() {
		for _, q := range []struct {
			name     string
			queueLen int
		}{{"roomy", 0}, {"full", 4}} {
			t.Run(tc.name+"/"+q.name, func(t *testing.T) {
				leakcheck.Check(t, 0)
				dst, err := NewNIC(tc.tr, tc.addr(40), q.queueLen)
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()

				var sent atomic.Int64
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					src, err := NewNIC(tc.tr, tc.addr(41+s), 0)
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
							sent.Add(1)
						}
					}(src, s)
				}
				defer wg.Wait()

				// The switch comes once this many messages are on their way
				// and, in the small-queue case, the queue is full.
				after := rand.Int63n(senders * per)
				for sent.Load() < after || (q.queueLen > 0 && len(dst.Queue()) < q.queueLen) {
					time.Sleep(10 * time.Microsecond)
				}

				var mu sync.Mutex
				next := make([]uint64, senders)
				seen := 0
				all := make(chan struct{})
				dst.Deliver(func(m wire.Msg) {
					mu.Lock()
					defer mu.Unlock()
					if m.Seq != next[m.Src] {
						t.Errorf("switch after %d: sender %d: got seq %d, want %d", after, m.Src, m.Seq, next[m.Src])
					}
					next[m.Src] = m.Seq + 1
					if seen++; seen == senders*per {
						close(all)
					}
				})
				if n := len(dst.Queue()); n != 0 {
					t.Errorf("switch after %d: %d messages left in the queue", after, n)
				}
				select {
				case <-all:
				case <-time.After(10 * time.Second):
					mu.Lock()
					t.Fatalf("switch after %d: sink saw %d of %d messages, next %v", after, seen, senders*per, next)
				}
				if n := len(dst.Queue()); n != 0 {
					t.Errorf("switch after %d: %d messages queued after the switch", after, n)
				}
			})
		}
	}
}

// TestCloseWithFullQueue: pollers blocked on a full queue nobody reads are
// released by Close, which recycles what they held.
func TestCloseWithFullQueue(t *testing.T) {
	leakcheck.Check(t, 0)
	fn := NewFastnet(0)
	dst, err := NewNIC(fn, "fullq-dst", 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewNIC(fn, "fullq-src", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 8; i++ {
		m := wire.Msg{Type: wire.TData, Payload: wire.GetBuf(64), Pooled: true}
		if err := src.Send(dst.Addr(), &m); err != nil {
			t.Fatal(err)
		}
	}
	for len(dst.Queue()) < 2 {
		time.Sleep(10 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() { dst.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on pollers blocked on the full queue")
	}
}
