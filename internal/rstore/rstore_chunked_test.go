package rstore

import (
	"bytes"
	"math/rand"
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
	p := ckpt.NewPipeline(writer, 4)

	imgs := chunkEpochs(6, 64)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatalf("put #%d: %v", n, err)
		}
	}
	if st := p.Stats(); st.Deltas == 0 {
		t.Fatalf("pipeline stats %+v: no delta records", st)
	}
	// The writer restores every epoch, mid-chain included.
	for n, want := range imgs {
		got, meta, err := p.Get(1, 0, uint64(n))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("writer get #%d: %v", n, err)
		}
		if meta.Index != uint64(n) {
			t.Fatalf("meta index = %d, want %d", meta.Index, n)
		}
	}
	// Replica holders materialized the chain: their Get serves the raw image.
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
	// non-holder (peer chain walk, block fetches included) — still restores
	// the newest epoch.
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

func TestRecordReplicationDeduplicates(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	writer := stores[1]
	p := ckpt.NewPipeline(writer, 8)

	imgs := chunkEpochs(2, 64)
	if err := p.Put(1, 0, 0, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	fullCost := writer.Stats().BytesReplicated
	if fullCost < uint64(len(imgs[0])) {
		t.Fatalf("full epoch replicated %d bytes for a %d-byte image", fullCost, len(imgs[0]))
	}
	// Delta epoch: only the two changed blocks (plus envelope and need/have
	// negotiation) cross the wire.
	if err := p.Put(1, 0, 1, imgs[1], nil); err != nil {
		t.Fatal(err)
	}
	deltaCost := writer.Stats().BytesReplicated - fullCost
	if deltaCost >= fullCost/5 {
		t.Errorf("delta epoch replicated %d bytes vs %d for the full: no savings", deltaCost, fullCost)
	}
	// A second rank checkpointing the identical image re-sends no block data:
	// cross-rank dedup leaves the envelope and the has-query.
	before := writer.Stats().BytesReplicated
	if err := p.Put(1, 1, 0, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	rankCost := writer.Stats().BytesReplicated - before
	if rankCost >= fullCost/10 {
		t.Errorf("identical second rank replicated %d bytes vs %d for the first", rankCost, fullCost)
	}
	got, _, err := stores[2].Get(1, 1, 0)
	if err != nil || !bytes.Equal(got, imgs[0]) {
		t.Fatalf("replica restore of deduplicated rank: %v", err)
	}
}

// TestPutAckListsMissingBlocks exercises the push's closing move: an envelope
// arriving before its blocks is refused — the kPut ack lists the missing ids
// and nothing is installed — and accepted once they land; and a whole pushSlot
// whose peer loses the blocks between the need/have answer and the slot (a GC
// broadcast collecting the record that referenced them) still converges, as
// one push.
func TestPutAckListsMissingBlocks(t *testing.T) {
	fn := vni.NewFastnet(0)
	// The first kPut frame of the test's pushSlot is held while the peer
	// collects slot 1, and with it every block slot 2 shares with it.
	racing := &tamper{Transport: fn, kind: kPut}
	racing.done.Store(true) // armed below
	stores := newCluster(t, racing, 2, 2)
	writer, peer := stores[1], stores[2]

	img := chunkEpochs(1, 8)[0]
	raw := ckpt.SplitBlocks(img)
	refs := make([]ckpt.BlockRef, len(raw))
	for i, b := range raw {
		refs[i] = ckpt.BlockRef{ID: ckpt.HashBlock(b), Len: uint32(len(b))}
		writer.mu.Lock()
		writer.blocks[refs[i].ID] = &blockEntry{data: append([]byte(nil), b...), refs: 1}
		writer.mu.Unlock()
	}
	env := ckpt.EncodeFullRecord(len(img), refs)
	rec, err := slotRecord(env)
	if err != nil {
		t.Fatal(err)
	}
	mb := encodeTagMeta(1<<32|1, &ckpt.Meta{Rank: 0, Index: 1})
	k := key{1, 0, 1}
	putPair := func() []byte {
		t.Helper()
		hdr := &wire.Msg{Type: wire.TControl, Kind: kPut, App: k.app, Src: k.rank, Seq: k.n, Payload: mb}
		data := &wire.Msg{Type: wire.TControl, Kind: kPutData, App: k.app, Src: k.rank, Seq: k.n, Payload: env}
		replies, err := writer.exchange(2, []*wire.Msg{hdr, data}, nil)
		if err != nil || replies[0].Kind != kOK {
			t.Fatalf("kPut pair: %v, reply %+v", err, replies)
		}
		return replies[0].Payload
	}

	// The peer has none of the blocks: the envelope must be refused with the
	// full missing list, and must not be installed.
	if still := putPair(); len(still) != len(refs)*len(ckpt.BlockID{}) {
		t.Fatalf("peer reported %d bytes of missing ids, want %d blocks", len(still), len(refs))
	}
	if peer.Holds(1, 0, 1) {
		t.Fatal("peer installed a record with missing blocks")
	}
	// The need/have query agrees, the blocks push, the record lands.
	missing, _, err := writer.blockQuery(2, refs)
	if err != nil || len(missing) != len(refs) {
		t.Fatalf("blockQuery = %d missing, %v", len(missing), err)
	}
	if _, err := writer.pushBlocks(2, missing); err != nil {
		t.Fatal(err)
	}
	if still := putPair(); len(still) != 0 {
		t.Fatalf("kPut after block push: still %d bytes of missing ids", len(still))
	}
	got, _, err := peer.Get(1, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("peer restore: %v", err)
	}

	// Slot 2 names the same blocks, so the peer answers "have" to all of them
	// — and then loses them to a GC before the slot arrives.
	racing.act = func(send func() error) error {
		peer.mu.Lock()
		peer.gcLocked(1, 0, 2)
		peer.mu.Unlock()
		return send()
	}
	racing.done.Store(false)
	before := writer.Stats()
	k.n = 2
	if _, err := writer.pushSlot(2, k, mb, env, rec); err != nil {
		t.Fatalf("push racing a GC: %v", err)
	}
	if !racing.done.Load() {
		t.Fatal("no GC was raced; the test exercised nothing")
	}
	after := writer.Stats()
	if after.Pushes != before.Pushes+1 || after.PushFailures != before.PushFailures {
		t.Errorf("one slot push counted as %d pushes, %d failures", after.Pushes-before.Pushes, after.PushFailures-before.PushFailures)
	}
	if after.BytesReplicated-before.BytesReplicated < uint64(len(img)) {
		t.Errorf("the raced push replicated %d bytes: the collected blocks were not sent again", after.BytesReplicated-before.BytesReplicated)
	}
	if got, _, err := peer.Get(1, 0, 2); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("peer restore of the raced slot: %v", err)
	}
}

// TestMaterializeInPlaceKeepsPublishedImages: the newest epoch's raw image is
// patched in place from record to record — through deltas, a full record that
// re-bases the chain, and resizes — and is exact on origin and replica at
// every epoch; an image a reader was handed is never written again.
func TestMaterializeInPlaceKeepsPublishedImages(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	p := ckpt.NewPipeline(stores[1], 4)

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
		for id, st := range stores {
			st.mu.Lock()
			r := st.resolved[key{1, 0, uint64(n)}]
			st.mu.Unlock()
			if r == nil || !bytes.Equal(r.raw, img) {
				t.Fatalf("node %d: epoch #%d not materialized exactly", id, n)
			}
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
