package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/gcs"
	"starfish/internal/mpi"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Probes call one layer's public functions in isolation, at the sizes the
// workload drives that layer with. They run after the traced repetition of
// their workload; the gap between a probe and the same layer's in-situ span
// is what the runtime around the layer costs.

// timeOps runs op n times and returns the median duration in nanoseconds.
func timeOps(n int, op func() error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(start).Nanoseconds()))
	}
	return median(d), nil
}

// bareComms builds n communicators straight on NICs: no proc, no daemon.
func bareComms(n int) ([]*mpi.Comm, func(), error) {
	fn := vni.NewFastnet(0)
	nics := make([]*vni.NIC, n)
	addrs := map[wire.Rank]string{}
	closeAll := func() {}
	for i := range nics {
		nic, err := vni.NewNIC(fn, fmt.Sprintf("probe-r%d", i), 0)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nics[i] = nic
		addrs[wire.Rank(i)] = nic.Addr()
		prev := closeAll
		closeAll = func() { nic.Close(); prev() }
	}
	comms := make([]*mpi.Comm, n)
	for i := range comms {
		c, err := mpi.New(mpi.Config{App: 1, Rank: wire.Rank(i), Size: n, NIC: nics[i], Addrs: addrs})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		comms[i] = c
		prev := closeAll
		closeAll = func() { c.Close(); prev() }
	}
	return comms, closeAll, nil
}

// probeBareAllreduce: the workload's Allreduce on four bare communicators.
func probeBareAllreduce(cfg *config) (float64, error) {
	const ranks, ops = 4, 300
	comms, closeAll, err := bareComms(ranks)
	if err != nil {
		return 0, err
	}
	defer closeAll()
	var wg sync.WaitGroup
	var p50 float64
	errs := make([]error, ranks)
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			contrib := mpi.Int64Bytes(allreduceVector(cfg.seed, r, cfg.sz.arElems))
			ns, err := timeOps(ops, func() error {
				res, err := c.Allreduce(contrib, mpi.SumInt64)
				wire.PutBuf(res)
				return err
			})
			if r == 0 {
				p50 = ns / 1e6
			}
			errs[r] = err
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return p50, nil
}

// probePingPong8: an 8-byte mpi ping-pong, the shape of a halo exchange.
func probePingPong8(*config) (float64, error) {
	comms, closeAll, err := bareComms(2)
	if err != nil {
		return 0, err
	}
	defer closeAll()
	const ops = 5000
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < ops; i++ {
			data, _, err := comms[1].Recv(0, 1)
			if err == nil {
				err = comms[1].Send(0, 1, data)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	buf := make([]byte, 8)
	ns, err := timeOps(ops, func() error {
		if err := comms[0].Send(1, 1, buf); err != nil {
			return err
		}
		_, _, err := comms[0].Recv(1, 1)
		return err
	})
	if err != nil {
		return 0, err
	}
	return ns / 1e3, <-echoErr
}

// probeVNIRoundTrip64K: one 64 KiB message there and back between two NICs,
// below the MPI module.
func probeVNIRoundTrip64K(*config) (float64, error) {
	fn := vni.NewFastnet(0)
	a, err := vni.NewNIC(fn, "probe-a", 0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := vni.NewNIC(fn, "probe-b", 0)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	const ops = 2000
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < ops; i++ {
			m := <-b.Queue()
			if err := b.Send(a.Addr(), &m); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	payload := make([]byte, 64<<10)
	ns, err := timeOps(ops, func() error {
		if err := a.Send(b.Addr(), &wire.Msg{Type: wire.TData, Payload: payload}); err != nil {
			return err
		}
		m := <-a.Queue()
		m.Release()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ns / 1e3, <-echoErr
}

// probeGCSCast: one totally ordered cast in a four-member group, sent by a
// member that is not the sequencer and timed to its own delivery — the unit
// the flush, ack and commit of an epoch are each made of.
func probeGCSCast(*config) (float64, error) {
	fn := vni.NewFastnet(0)
	const members = 4
	eps := make([]*gcs.Endpoint, 0, members)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	contact := ""
	for id := wire.NodeID(1); id <= members; id++ {
		ep, err := gcs.Join(gcs.Config{
			Node: id, Transport: fn, Addr: fmt.Sprintf("probe-g%d", id),
			Contact: contact, HeartbeatEvery: 200 * time.Millisecond, FailAfter: time.Hour,
		})
		if err != nil {
			return 0, err
		}
		eps = append(eps, ep)
		if contact == "" {
			contact = ep.Addr()
		}
	}
	for _, ep := range eps {
		ep := ep
		if !waitFor(bootDeadline, func() bool { return len(ep.View().Members) == members }) {
			return 0, fmt.Errorf("probe group never formed")
		}
	}
	sender := eps[1]
	for _, ep := range eps {
		if ep != sender { // drain the members the probe does not read
			go func(ep *gcs.Endpoint) {
				for range ep.Events() {
				}
			}(ep)
		}
	}
	ns, err := timeOps(2000, func() error {
		if err := sender.Cast([]byte{1}); err != nil {
			return err
		}
		deadline := time.After(epochDeadline)
		for {
			select {
			case ev := <-sender.Events():
				if ev.Kind == gcs.ECast {
					return nil
				}
			case <-deadline:
				return fmt.Errorf("cast not delivered")
			}
		}
	})
	return ns / 1e3, err
}

// jacobiImage is a portable image of the size a jacobi rank checkpoints.
func jacobiImage(cfg *config) ([]byte, []byte, error) {
	state := make([]byte, 64+8*(cfg.sz.jacN/4+2))
	rand.New(rand.NewSource(cfg.seed)).Read(state)
	img, err := (&ckpt.PortableEncoder{}).Encode(state, svm.Machines[0])
	return state, img, err
}

func probeEncodePortable(cfg *config) (float64, error) {
	state, _, err := jacobiImage(cfg)
	if err != nil {
		return 0, err
	}
	enc := &ckpt.PortableEncoder{}
	ns, err := timeOps(500, func() error {
		_, err := enc.Encode(state, svm.Machines[0])
		return err
	})
	return ns / 1e6, err
}

// diskProbe times Put or Get of a jacobi-sized image on the disk store.
func diskProbe(cfg *config, get bool) (float64, error) {
	_, img, err := jacobiImage(cfg)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "probe-disk-*")
	if err != nil {
		return 0, err
	}
	store, err := ckpt.NewStore(dir)
	if err != nil {
		return 0, err
	}
	n := uint64(0)
	put := func() error {
		n++
		if err := store.Put(1, 0, n, img, &ckpt.Meta{Rank: 0, Index: n}); err != nil {
			return err
		}
		if n > 2 {
			return store.GC(1, 0, n-1)
		}
		return nil
	}
	if !get {
		ns, err := timeOps(300, put)
		return ns / 1e6, err
	}
	if err := put(); err != nil {
		return 0, err
	}
	ns, err := timeOps(300, func() error {
		_, _, err := store.Get(1, 0, n)
		return err
	})
	return ns / 1e6, err
}

func probeDiskPut(cfg *config) (float64, error) { return diskProbe(cfg, false) }
func probeDiskGet(cfg *config) (float64, error) { return diskProbe(cfg, true) }

// probeSVMRun: the heap-writer program on a bare VM, million instructions
// per second.
func probeSVMRun(cfg *config) (float64, error) {
	p := vmHeapParams{heapWords: cfg.sz.vmHeapWords, inner: cfg.sz.vmInner}
	p.addr, p.stride = vmHeapSeeded(cfg.seed, p.heapWords)
	prog, err := svm.Assemble(heapWriterSource)
	if err != nil {
		return 0, err
	}
	vm := svm.New(alpha64[0], prog, vmGlobals)
	copy(vm.Globals, p.vmApp().Globals)
	vm.Grow(p.heapWords)
	vm.TrackDirty()
	const slice = 2_000_000
	ns, err := timeOps(9, func() error {
		_, err := vm.RunSteps(slice)
		return err
	})
	return slice / (ns / 1e9) / 1e6, err
}

// heapImages returns an image the size of the vmheap checkpoint and a
// mutator that rewrites one word in each of a tenth of its 4 KiB blocks,
// the write pattern of one epoch of the workload.
func heapImages(cfg *config) ([]byte, func(epoch uint64)) {
	// Like the workload's image: a patterned header, then a heap that is
	// zero but for the words the program wrote.
	size := 8*cfg.sz.vmHeapWords + ckpt.DefaultVMHeaderSize
	img := make([]byte, size)
	rand.New(rand.NewSource(cfg.seed)).Read(img[:ckpt.DefaultVMHeaderSize])
	blocks := size / ckpt.DeltaBlockSize
	next := 0
	return img, func(epoch uint64) {
		for i := 0; i < max(blocks/10, 1); i++ {
			next = (next + 7) % blocks
			binary.LittleEndian.PutUint64(img[next*ckpt.DeltaBlockSize+64:], epoch<<32|uint64(i)|1<<63)
		}
	}
}

func probeDeltaDiff(cfg *config) (float64, error) {
	img, mutate := heapImages(cfg)
	base := append([]byte(nil), img...)
	epoch := uint64(0)
	ns, err := timeOps(15, func() error {
		epoch++
		mutate(epoch)
		d := ckpt.ComputeDelta(base, img)
		if len(d.Blocks) == 0 {
			return fmt.Errorf("empty delta")
		}
		copy(base, img)
		return nil
	})
	return ns / 1e6, err
}

// probeHashSeal: content-address and seal the blocks one epoch changes.
func probeHashSeal(cfg *config) (float64, error) {
	img, _ := heapImages(cfg)
	blocks := ckpt.SplitBlocks(img)
	changed := blocks[:max(len(blocks)/10, 1)]
	ns, err := timeOps(15, func() error {
		for _, b := range changed {
			id := ckpt.HashBlock(b)
			if len(ckpt.SealBlock(b)) == 0 || id == (ckpt.BlockID{}) {
				return fmt.Errorf("empty sealed block")
			}
		}
		return nil
	})
	return ns / 1e6, err
}

// rstorePair builds a two-node replicated memory store with k=2, so every
// write on the first node crosses the wire to the second.
func rstorePair() (*rstore.Store, *rstore.Store, func(), error) {
	fn := vni.NewFastnet(0)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("probe-rs%d", id) }
	var stores []*rstore.Store
	closeAll := func() {
		for _, s := range stores {
			s.Close()
		}
	}
	for id := wire.NodeID(1); id <= 2; id++ {
		s, err := rstore.New(rstore.Config{Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2})
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		stores = append(stores, s)
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	return stores[0], stores[1], closeAll, nil
}

// probePipelinePut: one delta epoch through ckpt.Pipeline into replicated
// memory — diff, hash, seal, need/have replication — without proc or gcs.
func probePipelinePut(cfg *config) (float64, error) {
	writer, _, closeAll, err := rstorePair()
	if err != nil {
		return 0, err
	}
	defer closeAll()
	p := ckpt.NewPipeline(writer, 0)
	img, mutate := heapImages(cfg)
	n := uint64(0)
	put := func() error {
		n++
		mutate(n)
		if err := p.Put(1, 0, n, img, &ckpt.Meta{Rank: 0, Index: n}); err != nil {
			return err
		}
		return p.GC(1, 0, n)
	}
	if err := put(); err != nil { // the chain's full record
		return 0, err
	}
	// Median over a whole chain and more, so the full records that re-base
	// it weigh as they do in the workload.
	ns, err := timeOps(2*ckpt.DefaultFullEvery, put)
	return ns / 1e6, err
}

// rstoreProbe times the replicated store at the ring's image size: a put
// that replicates to the peer, a get served from local RAM, and a get that
// must fetch from the peer because the local copy is gone.
func rstoreProbe(cfg *config, l map[string]float64) error {
	writer, survivor, closeAll, err := rstorePair()
	if err != nil {
		return err
	}
	defer closeAll()
	img := ringBallast(cfg.seed, 0, cfg.sz.krBallast)
	n := uint64(0)
	ns, err := timeOps(30, func() error {
		n++
		if err := writer.Put(1, 0, n, img, &ckpt.Meta{Rank: 0, Index: n}); err != nil {
			return err
		}
		return writer.GC(1, 0, n)
	})
	if err != nil {
		return err
	}
	l["rstore.put_ms_p50"] = ns / 1e6
	if !waitFor(epochDeadline, func() bool { return survivor.Holds(1, 0, n) }) {
		return fmt.Errorf("replica of checkpoint %d never arrived", n)
	}
	get := func() error {
		got, _, err := survivor.Get(1, 0, n)
		if err == nil && len(got) != len(img) {
			err = fmt.Errorf("got %d bytes, want %d", len(got), len(img))
		}
		return err
	}
	if ns, err = timeOps(2000, get); err != nil {
		return err
	}
	l["rstore.get_local_us_p50"] = ns / 1e3
	if ns, err = timeOps(30, func() error {
		survivor.Evict(1, 0, n)
		return get()
	}); err != nil {
		return err
	}
	l["rstore.get_peer_ms_p50"] = ns / 1e6
	return nil
}
