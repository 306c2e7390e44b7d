// Recovery-path benchmarks: what one rank's restart costs, and what one
// node's death makes the replicated store move. backend=* measure the fetch
// of the committed image alone (Get), per storage backend, so the
// disk-vs-replicated-memory gap is tracked across PRs; restore-e2e runs a
// rank's whole restore; rereplicate-after-death counts the images a death
// makes the survivors push. scripts/check.sh records the results in
// BENCH_recovery.json and enforces the >=5x rstore-vs-disk bar at 8 MiB, the
// copy budget of a restore and pushes <= copies lost.
package starfish_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

const recoveryImageSize = 8 << 20 // the paper-scale checkpoint image

// seedBackend stores one committed checkpoint on be and returns its index.
func seedBackend(b *testing.B, be ckpt.Backend, size int) uint64 {
	b.Helper()
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i)
	}
	const n = 3
	if err := be.Put(1, 0, n, img, &ckpt.Meta{Rank: 0, Index: n}); err != nil {
		b.Fatal(err)
	}
	if err := be.CommitLine(1, ckpt.RecoveryLine{0: n}); err != nil {
		b.Fatal(err)
	}
	return n
}

// restoreOnce is the fetch of one rank's restart: read the committed line,
// then Get that checkpoint image. What the restart then does with the image
// is restore-e2e's to measure.
func restoreOnce(b *testing.B, be ckpt.Backend, n uint64) {
	line, err := be.CommittedLine(1)
	if err != nil {
		b.Fatal(err)
	}
	img, _, err := be.Get(1, 0, line[0])
	if err != nil {
		b.Fatal(err)
	}
	if len(img) != recoveryImageSize || line[0] != n {
		b.Fatalf("bad restore: %d bytes, index %d", len(img), line[0])
	}
}

// newRstorePair builds a two-node replicated memory store (k=2) on a
// fastnet, so node 1's images are replicated into node 2's RAM.
func newRstorePair(b testing.TB) (*rstore.Store, *rstore.Store) {
	b.Helper()
	fn := vni.NewFastnet(0)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("bench-rs-n%d", id) }
	var stores []*rstore.Store
	for id := wire.NodeID(1); id <= 2; id++ {
		s, err := rstore.New(rstore.Config{
			Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		stores = append(stores, s)
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	return stores[0], stores[1]
}

// BenchmarkRecovery compares one rank's restart-time checkpoint fetch
// across storage backends at the 8 MiB point (restore-e2e and
// rereplicate-after-death are described at their helpers below):
//
//   - backend=disk: the shared-file-system store of the paper (os file
//     read per fetch).
//   - backend=rstore: a surviving node's local RAM shard (the common case
//     after a crash — the replica is already in memory, returned
//     copy-free).
//   - backend=rstore-peer: worst case, the image must be pulled from a
//     peer's RAM over the network (the local copy is evicted every
//     iteration to force the remote fetch).
func BenchmarkRecovery(b *testing.B) {
	b.Run("backend=disk/size=8MB", func(b *testing.B) {
		store, err := ckpt.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		n := seedBackend(b, store, recoveryImageSize)
		b.SetBytes(recoveryImageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restoreOnce(b, store, n)
		}
	})

	b.Run("backend=rstore/size=8MB", func(b *testing.B) {
		writer, survivor := newRstorePair(b)
		n := seedBackend(b, writer, recoveryImageSize)
		waitReplica(b, survivor, n)
		b.SetBytes(recoveryImageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restoreOnce(b, survivor, n)
		}
	})

	b.Run("backend=rstore-peer/size=8MB", func(b *testing.B) {
		writer, survivor := newRstorePair(b)
		n := seedBackend(b, writer, recoveryImageSize)
		waitReplica(b, survivor, n)
		b.SetBytes(recoveryImageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			survivor.Evict(1, 0, n)
			restoreOnce(b, survivor, n)
		}
	})

	b.Run("restore-e2e/source=local", func(b *testing.B) {
		writer, _ := newRstorePair(b)
		benchRestoreE2E(b, writer, writer, nil)
	})

	b.Run("restore-e2e/source=peer", func(b *testing.B) {
		writer, survivor := newRstorePair(b)
		benchRestoreE2E(b, writer, survivor, func(n uint64) { survivor.Evict(restoreApp, 0, n) })
	})

	b.Run("rereplicate-after-death", benchRereplicateAfterDeath)
}

const (
	restoreApp       = 2
	restoreStateSize = 8 << 20 // application state; the image adds the 260 KiB VM header
)

// runRank runs one single-rank process to completion with the daemon's part
// played here: start it, hand its checkpoint traffic back in order, wait for
// its done report, tear it down.
func runRank(b *testing.B, fn *vni.Fastnet, spec proc.AppSpec, store ckpt.Backend, si proc.StartInfo) {
	sent := make(chan wire.Msg, 256)
	p, err := proc.New(proc.Config{
		Spec: spec, Arch: svm.Machines[0], Store: store,
		ToDaemon: func(m wire.Msg) { sent <- m }, Transport: fn, ListenAddr: "bench-restore-r0",
	})
	if err != nil {
		b.Fatal(err)
	}
	si.Size, si.Addrs = 1, map[wire.Rank]string{0: p.Addr()}
	p.Start()
	p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: proc.CfgStart, App: spec.ID, Payload: si.Encode()})
	for done := false; !done; {
		select {
		case m := <-sent:
			switch {
			case m.Type == wire.TConfiguration && m.Kind == proc.CfgDone:
				if len(m.Payload) != 0 {
					b.Fatalf("rank failed: %s", m.Payload)
				}
				done = true
			case m.Type == wire.TCheckpoint:
				p.Deliver(m)
			}
		case <-time.After(30 * time.Second):
			b.Fatal("rank did not finish")
		}
	}
	p.Close()
	<-p.Done()
}

// benchRestoreE2E measures a rank's whole restore — exactly what
// proc.initialize runs: Backend.Get, Encoder.Decode, the state split,
// App.Restore — by restarting a real process from a checkpoint a real
// process wrote, at the size a restart moves: 8 MiB of application state
// plus the portable encoder's 260 KiB header, so the image is not a power of
// two. B/op is the copy budget check.sh gates: the application's own copy
// from local RAM, plus the transport's one copy from a peer's.
func benchRestoreE2E(b *testing.B, writer, reader ckpt.Backend, lose func(n uint64)) {
	fn := vni.NewFastnet(0)
	spec := proc.AppSpec{
		ID: restoreApp, Name: apps.SizerName, Args: apps.SizerArgsSleep(restoreStateSize, 1, 0), Ranks: 1,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, CkptEverySteps: 1, Policy: proc.PolicyRestart,
	}
	// The job's only step ends in a checkpoint, so a process restored from
	// it finishes at its first step: the timed region is restore and
	// teardown.
	runRank(b, fn, spec, writer, proc.StartInfo{Gen: 1, NextCkptIndex: 1})
	line, err := writer.CommittedLine(restoreApp)
	if err != nil {
		b.Fatal(err)
	}
	spec.CkptEverySteps = 0
	si := proc.StartInfo{Gen: 2, Restore: true, RestoreIndex: line[0], NextCkptIndex: line[0] + 1, Line: line}
	b.SetBytes(restoreStateSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lose != nil {
			lose(line[0])
		}
		runRank(b, fn, spec, reader, si)
	}
}

// passLog collects the re-replication records of a set of stores.
type passLog struct {
	mu   sync.Mutex
	recs []evstore.Record
}

func (l *passLog) Emit(r evstore.Record) {
	if r.Kind != "rereplicate" {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// finished sums pushed= and bytes= over the passes of view generation gen
// that ran to their end, and reports how many there were.
func (l *passLog) finished(gen string) (passes int, pushed, bytes float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.recs {
		r := &l.recs[i]
		if g, _ := r.Get("gen"); g != gen {
			continue
		}
		if aborted, _ := r.Get("aborted"); aborted != "false" {
			continue
		}
		passes++
		pushed += field(r, "pushed")
		bytes += field(r, "bytes")
	}
	return passes, pushed, bytes
}

func field(r *evstore.Record, k string) float64 {
	v, _ := r.Get(k)
	x, _ := strconv.ParseFloat(v, 64)
	return x
}

// benchRereplicateAfterDeath kills one member of a four-node store holding
// three ranks' checkpoints (two indices each, both at or past the committed
// line, k=2) and reports what the survivors' re-replication passes pushed
// against the copies the death took. One op is one death; the victim rotates
// over the four nodes.
func benchRereplicateAfterDeath(b *testing.B) {
	const app, imgSize = 3, 64 << 10
	img := make([]byte, imgSize)
	var lost, pushed, bytes float64
	death := func(i int) {
		fn := vni.NewFastnet(0)
		addr := func(id wire.NodeID) string { return fmt.Sprintf("bench-rr-n%d", id) }
		log := &passLog{}
		stores := map[wire.NodeID]*rstore.Store{}
		members := []wire.NodeID{1, 2, 3, 4}
		for _, id := range members {
			s, err := rstore.New(rstore.Config{
				Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2, Events: log,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			stores[id] = s
			s.UpdateView(members)
		}
		for r := wire.Rank(0); r < 3; r++ {
			for n := uint64(1); n <= 2; n++ {
				if err := stores[wire.NodeID(r+1)].Put(app, r, n, img, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := stores[1].CommitLine(app, ckpt.RecoveryLine{0: 1, 1: 1, 2: 1}); err != nil {
			b.Fatal(err)
		}
		victim := members[i%len(members)]
		took := 0.0
		for r := wire.Rank(0); r < 3; r++ {
			for n := uint64(1); n <= 2; n++ {
				if stores[victim].Holds(app, r, n) {
					took++
				}
			}
		}
		var live []wire.NodeID
		for _, id := range members {
			if id != victim {
				live = append(live, id)
			}
		}
		fn.Crash(addr(victim))
		stores[victim].Close()
		for _, id := range live {
			stores[id].UpdateView(live)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			passes, p, by := log.finished("2") // view 1 was the full membership
			if passes == len(live) {
				if p > took {
					b.Fatalf("node %d took %v copies, the survivors pushed %v images", victim, took, p)
				}
				lost, pushed, bytes = lost+took, pushed+p, bytes+by
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("re-replication passes did not finish")
			}
			time.Sleep(100 * time.Microsecond)
		}
		for _, id := range live {
			if st := stores[id].Stats(); st.UnderReplicated != 0 {
				b.Fatalf("node %d still owes %d copies", id, st.UnderReplicated)
			}
		}
	}
	for i := 0; i < b.N; i++ {
		death(i)
	}
	b.ReportMetric(lost/float64(b.N), "lost-copies/op")
	b.ReportMetric(pushed/float64(b.N), "pushed-images/op")
	b.ReportMetric(bytes/float64(b.N), "pushed-B/op")
}

// waitReplica blocks until the replication push for checkpoint n landed.
func waitReplica(b *testing.B, s *rstore.Store, n uint64) {
	b.Helper()
	for i := 0; i < 10000; i++ {
		if s.Holds(1, 0, n) {
			return
		}
	}
	b.Fatal("replica never arrived")
}
