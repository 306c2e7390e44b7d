package proc

import (
	"fmt"
	"math/rand"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// chunkSweep stores its iteration number into the first word of one 4 KiB
// heap chunk per iteration, sweeping the heap: global 0 chunks to write, 1
// the address, 2 the heap size, 3 a running count.
const chunkSweep = `
loop:   loadg 0
        jz done
        loadg 1
        loadg 3
        storem          ; mem[addr] = count
        loadg 1
        push 512
        add
        loadg 2
        mod
        storeg 1        ; addr = (addr + one chunk) mod heap
        loadg 3
        push 1
        add
        storeg 3        ; count++
        loadg 0
        push 1
        sub
        storeg 0        ; chunks--
        jmp loop
done:   halt
`

// BenchmarkCheckpoint/mode=epoch is one rank's whole checkpoint epoch as the
// C/R module runs it for a write-tracking VM application — lend the spare
// image, Snapshot into it, finish the image in place, write the record of the
// hinted blocks that changed since the base, replicate it into memory (k=2),
// the committed line's GC — on an 8 MiB heap of which the program rewrote
// mut% of the 4 KiB chunks since the last epoch. scripts/check.sh folds it
// into BENCH_checkpoint.json beside the root package's mode=full and
// mode=delta, which start from an image, and gates it against the opaque
// full-image epoch.
//
// BenchmarkCheckpoint/mode=image is the C/R module's whole-image epoch, as it
// runs for an application that tracks no writes: Snapshot (an 8 MiB state
// the application keeps, not copied), the record of the whole image written
// straight from the state, replication into memory (k=2), the committed
// line's GC. check.sh gates its B/op.
func BenchmarkCheckpoint(b *testing.B) {
	const heapWords = 1 << 20
	arch := svm.Machines[5]
	b.Run("mode=image", func(b *testing.B) {
		stores := benchStores(b)
		app := &blobApp{state: make([]byte, 8<<20)}
		rand.New(rand.NewSource(1)).Read(app.state)
		spec := AppSpec{ID: 1, Ranks: 1, Encoder: ckpt.Portable}
		p := &Process{spec: spec, arch: arch, store: stores[0], app: app, encoder: spec.NewEncoder()}
		p.cr = newCRModule(p)
		rep0 := stores[0].Stats().BytesReplicated
		b.SetBytes(int64(len(app.state)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := uint64(i + 1)
			c := &cut{}
			if err := p.cr.snapshotApp(idx, c); err != nil {
				b.Fatal(err)
			}
			if err := storeEpoch(p.cr, idx, "bench", c, nil, &ckpt.Meta{}); err != nil {
				b.Fatal(err)
			}
			if err := stores[0].GC(1, 0, idx); err != nil {
				b.Fatal(err)
			}
		}
		rep := stores[0].Stats().BytesReplicated - rep0
		b.ReportMetric(float64(rep)/float64(b.N), "replicated_B/op")
	})
	for _, pct := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("mode=epoch/mut=%d", pct), func(b *testing.B) {
			stores := benchStores(b)

			chunks := heapWords / 512 * pct / 100
			app := &VMApp{
				StepSlice: 1 << 30, Source: chunkSweep, NGlobals: 4,
				Globals: []int64{0, 0, heapWords, 1}, HeapWords: heapWords,
			}
			spec := AppSpec{ID: 1, Ranks: 1, Encoder: ckpt.Portable}
			p := &Process{spec: spec, arch: arch, store: stores[0], app: app, encoder: spec.NewEncoder()}
			p.cr = newCRModule(p)
			if err := app.Init(&Ctx{Arch: arch}); err != nil {
				b.Fatal(err)
			}
			epoch := func(idx uint64) {
				vm := app.VM()
				vm.Globals[0], vm.PC, vm.Halted = int64(chunks), 0, false
				if _, err := app.Step(nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c := &cut{}
				if err := p.cr.snapshotApp(idx, c); err != nil {
					b.Fatal(err)
				}
				if err := storeEpoch(p.cr, idx, "bench", c, nil, &ckpt.Meta{}); err != nil {
					b.Fatal(err)
				}
				if idx%8 == 0 {
					if err := stores[0].GC(1, 0, idx); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			}
			b.StopTimer()
			epoch(1)
			epoch(2) // the third epoch is the first in place
			rep0 := stores[0].Stats().BytesReplicated
			b.SetBytes(int64(len(p.cr.base.img)))
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				epoch(uint64(i + 3))
			}
			if p.cr.spare.img == nil {
				b.Fatal("the epochs were not built in place")
			}
			rep := stores[0].Stats().BytesReplicated - rep0
			b.ReportMetric(float64(rep)/float64(b.N), "replicated_B/op")
		})
	}
}

// benchStores returns two replicated memory stores (k=2) on one fastnet, each
// seeing both as members; the first is the writer's.
func benchStores(b *testing.B) []*rstore.Store {
	fn := vni.NewFastnet(0)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("bench-epoch-n%d", id) }
	var stores []*rstore.Store
	for id := wire.NodeID(1); id <= 2; id++ {
		s, err := rstore.New(rstore.Config{Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		stores = append(stores, s)
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	return stores
}
