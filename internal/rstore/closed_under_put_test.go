package rstore

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// closingLink is a transport on which, once armed with a store, the next send
// out finds that store's node going down: the store is closed under the
// request, which fails.
type closingLink struct {
	vni.Transport
	down atomic.Pointer[Store]
}

type closingConn struct {
	vni.Conn
	t *closingLink
}

func (t *closingLink) Dial(addr string) (vni.Conn, error) {
	c, err := t.Transport.Dial(addr)
	return closingConn{c, t}, err
}

func (c closingConn) Send(m *wire.Msg) error {
	if s := c.t.down.Swap(nil); s != nil {
		go s.Close() // takes the peer lock this send runs under
		for !s.isClosed() {
			time.Sleep(time.Millisecond)
		}
		return errors.New("node going down")
	}
	return c.Conn.Send(m)
}

// TestPutFailsWhenClosedUnderIt: a crashing node's store is closed while a
// rank's put is pushing to the replica. The push dies with the store, nobody
// else holds the checkpoint, and the put must say so: a rank told "stored"
// acknowledges the round, the line commits, and the restart asks every
// survivor for a checkpoint none of them has.
func TestPutFailsWhenClosedUnderIt(t *testing.T) {
	for _, mode := range []string{"image", "record"} {
		t.Run(mode, func(t *testing.T) {
			fn := vni.NewFastnet(0)
			link := &closingLink{Transport: fn}
			members := []wire.NodeID{1, 2}
			stores := make(map[wire.NodeID]*Store, 2)
			for _, id := range members {
				var tr vni.Transport = fn
				if id == 1 {
					tr = link
				}
				s, err := New(Config{Node: id, Transport: tr, Addr: addr(id), PeerAddr: addr, Replicas: 2, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				stores[id] = s
			}
			for _, s := range stores {
				s.UpdateView(members)
			}
			for _, s := range stores {
				s.bg.Wait()
			}

			img := bytes.Repeat([]byte{0x5a}, 3*ckpt.DeltaBlockSize)
			var put func() error
			if mode == "image" {
				put = func() error { return stores[1].Put(21, 0, 1, img, nil) }
			} else {
				p := ckpt.NewPipeline(stores[1], 4)
				put = func() error { return p.Put(21, 0, 1, img, nil) }
			}
			link.down.Store(stores[1])
			if err := put(); err == nil {
				t.Fatal("a put whose push died with the store reported success")
			}
			if link.down.Load() != nil {
				t.Fatal("the put sent nothing; the test exercised nothing")
			}
			if stores[2].Holds(21, 0, 1) {
				t.Fatal("the replica holds the checkpoint after all")
			}
		})
	}
}
