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

func TestRecordGCDropsBlocks(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	writer := stores[1]
	p := ckpt.NewPipeline(writer, 2)

	imgs := chunkEpochs(4, 32)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	wBefore := writer.Stats().Blocks
	rBefore := stores[2].Stats().Blocks
	if wBefore == 0 || rBefore == 0 {
		t.Fatalf("no resident blocks before GC (writer %d, replica %d)", wBefore, rBefore)
	}
	// Epoch 2 is a full record (cadence 2): collecting there drops the first
	// chain's records and, via refcounts, the block versions only it used —
	// on the writer and, through the GC broadcast, on the replica.
	if err := p.GC(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if wAfter := writer.Stats().Blocks; wAfter >= wBefore {
		t.Errorf("writer blocks %d -> %d after chain GC", wBefore, wAfter)
	}
	waitFor(t, "replica block GC", func() bool {
		return stores[2].Stats().Blocks < rBefore
	})
	// The live chain is untouched on both nodes.
	for _, st := range stores {
		got, _, err := st.Get(1, 0, 3)
		if err != nil || !bytes.Equal(got, imgs[3]) {
			t.Fatalf("node %d restore after GC: %v", st.cfg.Node, err)
		}
	}
	if ns, err := writer.List(1, 0); err != nil || len(ns) != 2 || ns[0] != 2 {
		t.Fatalf("List after GC = %v, %v", ns, err)
	}
}

// TestPutRecMissingBlocks exercises the push protocol's GC race closing move:
// a record envelope arriving before its blocks is refused with the missing
// ids, accepted once they land.
func TestPutRecMissingBlocks(t *testing.T) {
	fn := vni.NewFastnet(0)
	stores := newCluster(t, fn, 2, 2)
	writer := stores[1]

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
	mb := encodeTagMeta(1<<32|1, &ckpt.Meta{Rank: 0, Index: 1})
	k := key{1, 0, 1}

	// The peer has none of the blocks: the envelope must be refused with the
	// full missing list, and must not be installed.
	still, _, err := writer.putRec(2, k, mb, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(still) != len(refs) {
		t.Fatalf("peer reported %d missing blocks, want %d", len(still), len(refs))
	}
	if stores[2].Holds(1, 0, 1) {
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
	still, _, err = writer.putRec(2, k, mb, env)
	if err != nil || len(still) != 0 {
		t.Fatalf("putRec after block push: still %d missing, %v", len(still), err)
	}
	got, _, err := stores[2].Get(1, 0, 1)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("peer restore: %v", err)
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
