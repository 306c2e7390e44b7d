package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"starfish/internal/wire"
)

// pipeStore builds a Pipeline over a fresh disk Store.
func pipeStore(t *testing.T) (*Pipeline, *Store) {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewPipeline(st, 0), st
}

// epochImages builds a deterministic sequence of images: epoch 0 is random,
// each later epoch mutates a few whole blocks of its predecessor.
func epochImages(t *testing.T, epochs, blocks int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	imgs := make([][]byte, epochs)
	imgs[0] = make([]byte, blocks*DeltaBlockSize)
	rng.Read(imgs[0])
	for e := 1; e < epochs; e++ {
		img := append([]byte(nil), imgs[e-1]...)
		for i := 0; i < 2; i++ {
			b := rng.Intn(blocks)
			rng.Read(img[b*DeltaBlockSize : (b+1)*DeltaBlockSize])
		}
		imgs[e] = img
	}
	return imgs
}

func TestPipelineRoundTripOverDisk(t *testing.T) {
	p, st := pipeStore(t)
	imgs := epochImages(t, 10, 16)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatalf("put #%d: %v", n, err)
		}
	}
	// The first record carries its whole image; every later one names the
	// slots that carry what it does not.
	for n := range imgs {
		rec, err := st.GetEnvelope(1, 0, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("slot #%d is not a record: %v", n, err)
		}
		if _, whole := r.Image(); whole != (n == 0) {
			t.Errorf("record #%d carries its whole image: %v", n, whole)
		}
	}
	stats := p.Stats()
	if stats.StoredBytes >= stats.RawBytes/2 {
		t.Errorf("stored %d bytes of %d raw: no incremental savings", stats.StoredBytes, stats.RawBytes)
	}
	// Every epoch reconstructs exactly.
	for n, want := range imgs {
		got, meta, err := p.Get(1, 0, uint64(n))
		if err != nil {
			t.Fatalf("get #%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("epoch #%d reconstructed wrong image", n)
		}
		if meta.Index != uint64(n) {
			t.Errorf("epoch #%d meta index = %d", n, meta.Index)
		}
	}
}

func TestPipelineShrinkAndGrow(t *testing.T) {
	p, _ := pipeStore(t)
	sizes := []int{
		5*DeltaBlockSize + 123, // base
		3 * DeltaBlockSize,     // shrink to block boundary
		7*DeltaBlockSize + 1,   // grow past the base
		7 * DeltaBlockSize,     // shrink by one byte
	}
	rng := rand.New(rand.NewSource(3))
	var imgs [][]byte
	prev := []byte(nil)
	for _, sz := range sizes {
		img := make([]byte, sz)
		copy(img, prev)
		if sz > len(prev) {
			rng.Read(img[len(prev):])
		}
		imgs = append(imgs, img)
		prev = img
	}
	for n, img := range imgs {
		if err := p.Put(9, 2, uint64(n), img, nil); err != nil {
			t.Fatalf("put #%d: %v", n, err)
		}
	}
	for n := 1; n < len(imgs); n++ {
		if env, err := p.GetEnvelope(9, 2, uint64(n)); err != nil {
			t.Fatal(err)
		} else if r, err := DecodeRecord(env); err != nil || len(r.Names) == 0 {
			t.Errorf("resized record #%d names no earlier slot: %v", n, err)
		}
	}
	for n, want := range imgs {
		got, _, err := p.Get(9, 2, uint64(n))
		if err != nil {
			t.Fatalf("get #%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("epoch #%d (len %d) reconstructed wrong image", n, len(want))
		}
	}
}

func TestPipelineIndexGapForcesFull(t *testing.T) {
	p, _ := pipeStore(t)
	imgs := epochImages(t, 3, 8)
	if err := p.Put(2, 0, 0, imgs[0], nil); err != nil {
		t.Fatal(err)
	}
	// Index 2 does not follow 0: the record after the gap carries every block.
	if err := p.Put(2, 0, 2, imgs[1], nil); err != nil {
		t.Fatal(err)
	}
	if env, err := p.GetEnvelope(2, 0, 2); err != nil {
		t.Fatal(err)
	} else if r, err := DecodeRecord(env); err != nil || len(r.Names) != 0 {
		t.Errorf("the record after an index gap names %v: %v", r.Names, err)
	}
	got, _, err := p.Get(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imgs[1]) {
		t.Error("the record after the gap reconstructed the wrong image")
	}
}

// removeSlot deletes the stored record of checkpoint n directly from the
// disk store, simulating a lost carrier.
func removeSlot(t *testing.T, st *Store, app wire.AppID, rank wire.Rank, n uint64) {
	t.Helper()
	if err := os.Remove(st.slotPath(app, rank, n, "rec")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.slotPath(app, rank, n, "meta")); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMissingBlockTyped: a record whose carry list names a slot
// that is gone cannot be assembled, and says so the way a restart understands.
func TestPipelineMissingBlockTyped(t *testing.T) {
	p, st := pipeStore(t)
	imgs := epochImages(t, 5, 8)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := st.GetEnvelope(1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeRecord(rec)
	if err != nil || r.Kind != RecFull || len(r.Names) == 0 {
		t.Fatalf("slot #4 is no carry list naming earlier slots: %v", err)
	}
	removeSlot(t, st, 1, 0, r.Names[0])
	_, _, err = p.Get(1, 0, 4)
	if !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("err = %v, want ErrMissingBlock", err)
	}
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, must wrap ErrNoCheckpoint", err)
	}
}

// TestPipelineCorruptBlockTyped: a block read back from disk that fails its
// crc32c is ErrMissingBlock, never restored, and so is nothing else a corrupt
// record file holds.
func TestPipelineCorruptBlockTyped(t *testing.T) {
	p, st := pipeStore(t)
	imgs := epochImages(t, 2, 8)
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := os.ReadFile(st.slotPath(1, 0, 1, "rec"))
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)-1] ^= 0xEE // inside the record's last block
	if err := os.WriteFile(st.slotPath(1, 0, 1, "rec"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = p.Get(1, 0, 1)
	if !errors.Is(err, ErrMissingBlock) {
		t.Fatalf("err = %v, want ErrMissingBlock for a corrupt block", err)
	}
	// A corrupt envelope — here the index of the first block it lists —
	// fails the envelope's own crc32c.
	rec[len(rec)-1] ^= 0xEE
	rec[headerLen+3] ^= 1
	if err := os.WriteFile(st.slotPath(1, 0, 1, "rec"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if img, _, err := p.Get(1, 0, 1); img != nil || !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Get with a corrupt envelope = %d bytes, %v; want ErrNoCheckpoint", len(img), err)
	}
}

// recordFiles lists the rank's record files by slot.
func recordFiles(t *testing.T, st *Store) map[uint64]bool {
	t.Helper()
	ents, err := os.ReadDir(st.rankDir(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]bool)
	for _, e := range ents {
		if n, ext, ok := slotFile(e.Name()); ok && ext == "rec" {
			out[n] = true
		}
	}
	return out
}

func TestPipelineGCCollectsSupersededChain(t *testing.T) {
	p, st := pipeStore(t)
	imgs := epochImages(t, 8, 2) // few blocks: some old record is wholly rewritten
	for n, img := range imgs {
		if err := p.Put(1, 0, uint64(n), img, nil); err != nil {
			t.Fatal(err)
		}
	}
	// GC at epoch 4 drops records 0..3, but for those its carry list names:
	// no later record names an earlier slot that record 4 does not.
	if err := p.GC(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	ns, err := st.List(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 || ns[0] != 4 {
		t.Fatalf("list after GC = %v, want epochs 4..7", ns)
	}
	env, err := st.GetEnvelope(1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	carry, err := DecodeRecord(env)
	if err != nil {
		t.Fatal(err)
	}
	files := recordFiles(t, st)
	for n := uint64(0); n < 4; n++ {
		if named := slices.Contains(carry.Names, n); files[n] != named {
			t.Errorf("record #%d kept %v, named by the carry list %v", n, files[n], named)
		}
		if _, _, err := p.Get(1, 0, n); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("Get of collected #%d = %v, want ErrNoCheckpoint", n, err)
		}
	}
	if len(carry.Names) == 4 {
		t.Fatal("the carry list names every old record; nothing was collected")
	}
	// No orphans: every survivor must reconstruct from what remains.
	for n := 4; n < 8; n++ {
		got, _, err := p.Get(1, 0, uint64(n))
		if err != nil || !bytes.Equal(got, imgs[n]) {
			t.Fatalf("epoch #%d broken after GC: %v", n, err)
		}
	}
	// GC again finds nothing more: what is named stays.
	if err := p.GC(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if again := recordFiles(t, st); len(again) != len(files) {
		t.Errorf("idempotent GC removed %d more records", len(files)-len(again))
	}
}

func TestSealedBlocksCompress(t *testing.T) {
	// The cold tier seals compressed: a zero block costs almost nothing.
	zero := make([]byte, DeltaBlockSize)
	sealed := SealBlock(zero)
	if len(sealed) >= DeltaBlockSize/8 {
		t.Errorf("zero block sealed to %d bytes", len(sealed))
	}
	back, err := UnsealBlock(sealed, DeltaBlockSize)
	if err != nil || !bytes.Equal(back, zero) {
		t.Fatalf("unseal: %v", err)
	}
	// Wrong expected length must error, not truncate.
	if _, err := UnsealBlock(sealed, DeltaBlockSize-1); err == nil {
		t.Error("unseal with wrong length succeeded")
	}
}
