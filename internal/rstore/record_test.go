package rstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// chunkEpochs builds a checkpoint-epoch sequence: a random base image, then
// each epoch rewrites two whole blocks — the incremental workload.
func chunkEpochs(epochs, blocks int) [][]byte {
	rng := rand.New(rand.NewSource(11))
	imgs := make([][]byte, epochs)
	imgs[0] = make([]byte, blocks*ckpt.DeltaBlockSize)
	rng.Read(imgs[0])
	for e := 1; e < epochs; e++ {
		img := append([]byte(nil), imgs[e-1]...)
		for i := 0; i < 2; i++ {
			b := rng.Intn(blocks)
			rng.Read(img[b*ckpt.DeltaBlockSize : (b+1)*ckpt.DeltaBlockSize])
		}
		imgs[e] = img
	}
	return imgs
}

func TestRecordReplicationAndRestore(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	writer := stores[1]
	p := ckpt.NewPipeline(writer, 0)

	imgs := chunkEpochs(6, 64)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatalf("put #%d: %v", n, err)
		}
	}
	if st := p.Stats(); st.StoredBytes >= st.RawBytes/2 {
		t.Fatalf("pipeline stats %+v: no incremental savings", st)
	}
	// The writer restores every epoch.
	for n, want := range imgs {
		got, meta, err := p.Get(1, 0, uint64(n))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("writer get #%d: %v", n, err)
		}
		if meta.Index != uint64(n) {
			t.Fatalf("meta index = %d, want %d", meta.Index, n)
		}
	}
	// Replica holders materialized the records: their Get serves the image.
	copies := 0
	for id, st := range stores {
		if !st.Holds(1, 0, 5) {
			continue
		}
		copies++
		got, _, err := st.Get(1, 0, 5)
		if err != nil || !bytes.Equal(got, imgs[5]) {
			t.Fatalf("node %d replica restore: %v", id, err)
		}
	}
	if copies < 2 {
		t.Fatalf("record epoch on %d nodes, want >= 2", copies)
	}

	// Kill the writer. Every survivor — holder (materialized cache) and
	// non-holder (the record and the slots it names, fetched from a peer) —
	// still restores the newest epoch.
	fn.Crash(addr(1))
	writer.Close()
	survivors := []wire.NodeID{2, 3}
	for _, id := range survivors {
		stores[id].UpdateView(survivors)
	}
	for _, id := range survivors {
		got, meta, err := stores[id].Get(1, 0, 5)
		if err != nil {
			t.Fatalf("node %d restore after writer crash: %v", id, err)
		}
		if !bytes.Equal(got, imgs[5]) || meta.Index != 5 {
			t.Fatalf("node %d restored wrong image", id)
		}
	}
}

// TestRecordReplicationDeduplicates: an epoch sends what changed and a carry
// list naming the slots that carry everything else.
func TestRecordReplicationDeduplicates(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	writer := stores[1]
	p := ckpt.NewPipeline(writer, 0)

	imgs := chunkEpochs(3, 64)
	if err := p.Put(1, 0, 0, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	fullCost := writer.Stats().BytesReplicated
	if fullCost < uint64(len(imgs[0])) {
		t.Fatalf("first epoch replicated %d bytes for a %d-byte image", fullCost, len(imgs[0]))
	}
	// Each later epoch sends its two changed blocks and an envelope, never
	// the unchanged ones.
	for n := 1; n <= 2; n++ {
		before := writer.Stats().BytesReplicated
		if err := p.Put(1, 0, uint64(n), imgs[n], nil); err != nil {
			t.Fatal(err)
		}
		if cost := writer.Stats().BytesReplicated - before; cost >= fullCost/5 {
			t.Errorf("epoch %d replicated %d bytes vs %d for the first: no savings", n, cost, fullCost)
		}
	}
	got, _, err := stores[2].Get(1, 0, 2)
	if err != nil || !bytes.Equal(got, imgs[2]) {
		t.Fatalf("replica restore of the newest record: %v", err)
	}
}

// TestPutAckListsMissingSlots exercises the push's closing move: a record
// arriving before a slot it names is refused — the kPut ack lists the missing
// slots and nothing is installed — and the pusher sends those first; and a
// push whose peer loses a named slot between two pushes (a GC broadcast
// collecting it) still converges.
func TestPutAckListsMissingSlots(t *testing.T) {
	fn := vni.NewFastnet(0)
	// The first kPut frame of the raced push is held while the peer collects
	// everything below slot 3.
	racing := &tamper{Transport: fn, kind: kPut}
	racing.done.Store(true) // armed below
	stores := newCluster(t, racing, 2, 2)
	writer, peer := stores[1], stores[2]

	const app = 4
	imgs := chunkEpochs(3, 8)
	recs := records(imgs...) // the first image's record and two carry lists
	held := make(map[uint64]entry)
	writer.mu.Lock()
	for n, rec := range recs {
		r, err := ckpt.DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		held[n] = *writer.setSlotLocked(key{app, 0, n}, rec, slotRecord, r, &ckpt.Meta{Rank: 0, Index: n}, 1<<32|n, false)
	}
	writer.mu.Unlock()

	// The peer has none of the records: slot 2 is refused, naming slot 1.
	k := key{app, 0, 2}
	put := &wire.Msg{Type: wire.TControl, Kind: kPut, App: k.app, Src: k.rank, Seq: k.n, Payload: encodeSlotHeader(held[2].tag, slotRecord, held[2].meta)}
	data := &wire.Msg{Type: wire.TControl, Kind: kPutData, App: k.app, Src: k.rank, Seq: k.n, Payload: recs[2]}
	replies, err := writer.exchange(2, []*wire.Msg{put, data}, nil)
	if err != nil || replies[0].Kind != kOK || !bytes.Equal(replies[0].Payload, binary.BigEndian.AppendUint64(nil, 1)) {
		t.Fatalf("kPut of a carry list ahead of the slot it names: %v, reply %+v", err, replies)
	}
	if peer.Holds(app, 0, 2) {
		t.Fatal("peer installed a record naming a slot it lacks")
	}
	// pushSlot sends the named slot first, then the record again.
	if _, err := writer.pushSlot(2, k, held[2]); err != nil {
		t.Fatal(err)
	}
	if !peer.Holds(app, 0, 1) || !peer.Holds(app, 0, 2) {
		t.Fatal("the push did not leave both slots on the peer")
	}

	// Slot 3 names slots 1 and 2 — which the peer loses to a GC just before
	// the record arrives.
	racing.act = func(send func() error) error {
		peer.mu.Lock()
		peer.gcLocked(app, 0, 3)
		peer.mu.Unlock()
		return send()
	}
	racing.done.Store(false)
	before := writer.Stats()
	k.n = 3
	if _, err := writer.pushSlot(2, k, held[3]); err != nil {
		t.Fatalf("push racing a GC: %v", err)
	}
	if !racing.done.Load() {
		t.Fatal("no GC was raced; the test exercised nothing")
	}
	after := writer.Stats()
	// Slot 3, then slots 1 and 2 it names: three pushes.
	if after.Pushes != before.Pushes+3 || after.PushFailures != before.PushFailures {
		t.Errorf("the raced push counted %d pushes, %d failures; want 3, 0", after.Pushes-before.Pushes, after.PushFailures-before.PushFailures)
	}
	if got, _, err := peer.Get(app, 0, 3); err != nil || !bytes.Equal(got, imgs[2]) {
		t.Fatalf("peer restore of the raced slot: %v", err)
	}
}

// TestRecordNeverInstallsOverAnotherIncarnation: a restart rolls the rank back
// to slot 1, the new incarnation rewrites slot 2 and its push to the holder —
// which still has the dead incarnation's slot 2 — fails. Slot 3's carry list
// names slot 2. The holder must not take blocks from the dead incarnation's
// bytes: its restore of slot 3 is the new incarnation's image.
func TestRecordNeverInstallsOverAnotherIncarnation(t *testing.T) {
	// Armed, every kPut frame fails to send, so every attempt of a push
	// fails: the action re-arms the tamper each time it fires.
	link := &tamper{Transport: vni.NewFastnet(0), kind: kPut}
	link.done.Store(true)
	link.act = func(func() error) error {
		link.done.Store(false)
		return errors.New("refused")
	}
	stores := newCluster(t, link, 2, 2)
	writer, holder := stores[1], stores[2]
	const app = 9

	base := chunkEpochs(1, 8)[0]
	rewrite := func(img []byte, block int) []byte {
		img = bytes.Clone(img)
		img[block*ckpt.DeltaBlockSize]++
		return img
	}
	dead1 := rewrite(base, 0)
	live1 := rewrite(base, 1)
	live2 := rewrite(live1, 2)
	dead := records(base, dead1)        // slots 1 and 2 of the dead incarnation
	live := records(base, live1, live2) // slot 3 names slot 2 for block 1
	if !bytes.Equal(dead[1], live[1]) {
		t.Fatal("the two incarnations do not share slot 1")
	}

	for n := uint64(1); n <= 2; n++ {
		if err := writer.PutRecord(app, 0, n, dead[n], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Rolled back to slot 1: the rewrite of slot 2 stays on the writer, and
	// the put fails, naming the holder its push did not reach.
	link.done.Store(false)
	if err := writer.PutRecord(app, 0, 2, live[2], nil); !errors.Is(err, ckpt.ErrUnreplicated) || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("a put whose push failed returned %v", err)
	}
	link.done.Store(true)
	if got, _, err := writer.Get(app, 0, 2); err != nil || !bytes.Equal(got, live1) {
		t.Fatalf("the writer's slot 2 is not the rewrite: %v", err)
	}
	if got, _, err := holder.Get(app, 0, 2); err != nil || !bytes.Equal(got, dead1) {
		t.Fatalf("the holder's slot 2 is not the dead incarnation's: %v", err)
	}
	before := writer.Stats()
	if err := writer.PutRecord(app, 0, 3, live[3], nil); err != nil {
		t.Fatal(err)
	}
	for n, want := range map[uint64][]byte{2: live1, 3: live2} {
		if got, _, err := holder.Get(app, 0, n); err != nil || !bytes.Equal(got, want) {
			t.Errorf("the holder restores slot %d as another incarnation's image (err %v)", n, err)
		}
	}
	// Slot 3, and slot 2 ahead of it: two pushes, none failed.
	if after := writer.Stats(); after.Pushes != before.Pushes+2 || after.PushFailures != before.PushFailures {
		t.Errorf("slot 3 took %d pushes, %d failed; want 2, 0", after.Pushes-before.Pushes, after.PushFailures-before.PushFailures)
	}
}

// TestMaterializeInPlaceKeepsPublishedImages: the newest epoch's image is
// patched in place from record to record — through carry lists and resizes —
// and is exact on origin and replica at every epoch; an image a reader was
// handed, or one that is a record's own data, is never written again.
func TestMaterializeInPlaceKeepsPublishedImages(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	p := ckpt.NewPipeline(stores[1], 0)

	imgs := chunkEpochs(12, 32)
	imgs[6] = append(imgs[6], bytes.Repeat([]byte{7}, 5000)...) // grow
	imgs[7] = append([]byte(nil), imgs[6]...)
	imgs[7][100]++
	imgs[9] = imgs[9][:len(imgs[9])-ckpt.DeltaBlockSize-1] // shrink
	type handedOut struct{ got, want []byte }
	var published []handedOut
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatalf("put #%d: %v", n, err)
		}
		// The writer materializes before its put returns, a holder right
		// after it acks.
		for id, st := range stores {
			waitFor(t, fmt.Sprintf("node %d materializing epoch #%d", id, n), func() bool {
				st.mu.Lock()
				defer st.mu.Unlock()
				r := st.resolved[key{1, 0, uint64(n)}]
				return r != nil && bytes.Equal(r.raw, img)
			})
		}
		// Every third epoch a reader takes the image; it must stay what it
		// was while later epochs land.
		if n%3 == 0 {
			got, _, err := stores[2].Get(1, 0, uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			published = append(published, handedOut{got, append([]byte(nil), img...)})
		}
		for i, h := range published {
			if !bytes.Equal(h.got, h.want) {
				t.Fatalf("after epoch #%d: image handed out earlier (%d) was overwritten", n, i)
			}
		}
	}
}

// TestCollectedRecordsAreCutDown: a collected record that carry lists still
// name for a few of its blocks is cut down to those, on every holder, and the
// newest epoch still restores — on a node that holds none of the records and
// fetches them from its peers.
func TestCollectedRecordsAreCutDown(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 3, 2)
	const app = 6
	p := ckpt.NewPipeline(stores[1], 0)
	// Epochs 2..5 rewrite blocks 0..11 three at a time, so by the carry list
	// at slot 5 the first record carries only blocks 12..15 that are current.
	imgs := chunkEpochs(1, 16)
	for e := 0; e < 4; e++ {
		img := bytes.Clone(imgs[e])
		for b := 3 * e; b < 3*e+3; b++ {
			img[b*ckpt.DeltaBlockSize]++
		}
		imgs = append(imgs, img)
	}
	for n, img := range imgs {
		if err := p.Put(app, 0, uint64(n+1), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.GC(app, 0, 5); err != nil {
		t.Fatal(err)
	}
	var reader *Store
	for _, s := range stores {
		if !s.Holds(app, 0, 5) {
			reader = s
			continue
		}
		s.mu.Lock()
		e := s.images[key{app, 0, 1}]
		s.mu.Unlock()
		if e == nil || e.kind != slotRetained || e.rec.Kind != ckpt.RecKept || len(e.img) > 5*ckpt.DeltaBlockSize {
			t.Fatalf("node %d: the first record was not cut down to its four current blocks", s.cfg.Node)
		}
	}
	if got, _, err := reader.Get(app, 0, 5); err != nil || !bytes.Equal(got, imgs[4]) {
		t.Fatalf("a non-holder cannot restore the newest epoch: %v", err)
	}
}
