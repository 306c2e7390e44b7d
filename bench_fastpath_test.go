// Fast-path allocation/copy benchmarks. These back the copy-budget work:
// scripts/check.sh runs them with -benchmem and records the results in
// BENCH_fastpath.json so the allocation trajectory of the data path is
// tracked across PRs.
package starfish_test

import (
	"bytes"
	"fmt"
	"testing"

	"starfish/internal/mpi"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// BenchmarkWireCodec measures framing cost in isolation: one message
// encoded into a stream and decoded back, per iteration. The pooled variant
// reads through ReadMsgBuf and releases, so steady state recycles one buffer.
func BenchmarkWireCodec(b *testing.B) {
	prev := wire.SetPoolGuard(false)
	defer wire.SetPoolGuard(prev)
	for _, size := range []int{64, 4096, 64 << 10} {
		m := wire.Msg{Type: wire.TData, App: 1, Src: 0, Dst: 1, Tag: 7, Seq: 9, Payload: make([]byte, size)}
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := wire.WriteMsg(&buf, &m); err != nil {
					b.Fatal(err)
				}
				got, err := wire.ReadMsgBuf(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Payload) != size {
					b.Fatal("bad payload")
				}
				got.Release()
			}
		})
	}
}

// BenchmarkFastPathRoundTrip measures a full MPI ping-pong round trip over
// the fastnet transport (the BIP/Myrinet stand-in) at the Figure-5 64 KiB
// point, reporting allocations and copied payload bytes per operation.
//
// The default variant uses the pooled recycling idiom (echo forwards with
// SendOwned, the origin releases the reply): one API-boundary copy per round
// trip and zero steady-state allocations. The naive variant ignores pooling
// entirely, as pre-copy-budget code did.
//
// The 8-byte variant is the shape of a halo exchange: a message too small to
// be worth owning, received with RecvInto into the buffer it was sent from.
// That is a second 8-byte copy per round trip and still no allocation.
func BenchmarkFastPathRoundTrip(b *testing.B) {
	prev := wire.SetPoolGuard(false)
	defer wire.SetPoolGuard(prev)
	b.Run("size=8B", func(b *testing.B) {
		c0, cleanup := fastPathWorld(b, vni.NewFastnet(0), true)
		defer cleanup()
		var buf [8]byte
		b.SetBytes(2 * int64(len(buf)))
		copied0 := wire.CopiedBytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c0.Send(1, 0, buf[:]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := c0.RecvInto(1, 0, buf[:]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wire.CopiedBytes()-copied0)/float64(b.N), "copied-B/op")
	})
	const size = 64 << 10
	b.Run("size=64KB", func(b *testing.B) {
		c0, cleanup := fastPathWorld(b, vni.NewFastnet(0), true)
		defer cleanup()
		buf := make([]byte, size)
		b.SetBytes(2 * size)
		copied0 := wire.CopiedBytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c0.Send(1, 0, buf); err != nil {
				b.Fatal(err)
			}
			data, st, err := c0.Recv(1, 0)
			if err != nil {
				b.Fatal(err)
			}
			if st.Pooled {
				wire.PutBuf(data)
			}
		}
		b.ReportMetric(float64(wire.CopiedBytes()-copied0)/float64(b.N), "copied-B/op")
	})
	b.Run("size=64KB/naive", func(b *testing.B) {
		c0, cleanup := fastPathWorld(b, vni.NewFastnet(0), false)
		defer cleanup()
		buf := make([]byte, size)
		b.SetBytes(2 * size)
		copied0 := wire.CopiedBytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c0.Send(1, 0, buf); err != nil {
				b.Fatal(err)
			}
			if _, _, err := c0.Recv(1, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wire.CopiedBytes()-copied0)/float64(b.N), "copied-B/op")
	})
}

// fastPathWorld builds a two-rank world on fn and starts an echo server on
// rank 1. With echoOwned the echo forwards received pooled buffers with
// SendOwned (the zero-copy idiom); otherwise it re-sends through the copying
// API.
func fastPathWorld(b *testing.B, fn *vni.Fastnet, echoOwned bool) (*mpi.Comm, func()) {
	b.Helper()
	nic0, err := vni.NewNIC(fn, "fp-0", 0)
	if err != nil {
		b.Fatal(err)
	}
	nic1, err := vni.NewNIC(fn, "fp-1", 0)
	if err != nil {
		b.Fatal(err)
	}
	addrs := map[wire.Rank]string{0: nic0.Addr(), 1: nic1.Addr()}
	c0, err := mpi.New(mpi.Config{App: 1, Rank: 0, Size: 2, NIC: nic0, Addrs: addrs})
	if err != nil {
		b.Fatal(err)
	}
	c1, err := mpi.New(mpi.Config{App: 1, Rank: 1, Size: 2, NIC: nic1, Addrs: addrs})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			data, st, err := c1.Recv(0, 0)
			if err != nil {
				return
			}
			if echoOwned && st.Pooled {
				err = c1.SendOwned(0, 0, data)
			} else {
				err = c1.Send(0, 0, data)
			}
			if err != nil {
				return
			}
		}
	}()
	return c0, func() {
		c0.Close()
		c1.Close()
		<-done
		nic0.Close()
		nic1.Close()
	}
}
