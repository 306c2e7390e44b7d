package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkDelta holds ComputeDelta to the shipping diff and the shipping format:
// it names exactly the blocks RecordOf carries on top of base (the reference
// diff's), with the same content, and next written through a Pipeline on top
// of base resolves back to next.
func checkDelta(t testing.TB, base, next []byte) *Delta {
	t.Helper()
	d := ComputeDelta(base, next)
	if d.BaseLen != len(base) || d.NewLen != len(next) {
		t.Fatalf("delta lengths %d/%d, want %d/%d", d.BaseLen, d.NewLen, len(base), len(next))
	}
	changed := refDiffBlocks(base, next, nil)
	if len(changed) != len(d.Blocks) {
		t.Fatalf("ComputeDelta names %d blocks, the diff %d", len(d.Blocks), len(changed))
	}
	for _, i := range changed {
		lo := int(i) * DeltaBlockSize
		if b, ok := d.Blocks[int(i)]; !ok || !bytes.Equal(b, next[lo:lo+blockLen(len(next), i)]) {
			t.Fatalf("block %d: ComputeDelta and the diff disagree", i)
		}
	}
	if base != nil {
		where := CarryList(RecordOf(1, nil, nil, nil, base), nil)
		if !bytes.Equal(RecordOf(2, base, where, nil, next), refRecord(2, base, where, nil, next)) {
			t.Fatal("RecordOf carries other blocks than the diff names")
		}
	}
	p := NewPipeline(newMemBackend(), 0)
	if err := p.Put(1, 0, 1, base, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(1, 0, 2, next, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Get(1, 0, 2)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if !bytes.Equal(got, next) {
		t.Fatalf("round trip mismatch: %d bytes -> %d bytes", len(base), len(next))
	}
	return d
}

func TestDeltaIdenticalStates(t *testing.T) {
	state := make([]byte, 3*DeltaBlockSize+100)
	for i := range state {
		state[i] = byte(i)
	}
	if d := checkDelta(t, state, state); len(d.Blocks) != 0 {
		t.Errorf("identical states produced %d changed blocks", len(d.Blocks))
	}
}

func TestDeltaSingleBlockChange(t *testing.T) {
	base := make([]byte, 8*DeltaBlockSize)
	next := append([]byte(nil), base...)
	next[5*DeltaBlockSize+17] = 0xFF
	d := checkDelta(t, base, next)
	if len(d.Blocks) != 1 {
		t.Fatalf("changed blocks = %d, want 1", len(d.Blocks))
	}
	if _, ok := d.Blocks[5]; !ok {
		t.Errorf("wrong block: %v", d.Blocks)
	}
}

func TestDeltaGrowAndShrink(t *testing.T) {
	base := make([]byte, 2*DeltaBlockSize)
	grown := make([]byte, 3*DeltaBlockSize+7)
	for i := range grown {
		grown[i] = byte(i * 3)
	}
	checkDelta(t, base, grown)
	checkDelta(t, grown, base)
}

// TestDeltaWrongBase: a record that takes a block from a slot whose image had
// another length — the slot carries that block at another length — is
// refused, never applied.
func TestDeltaWrongBase(t *testing.T) {
	be := newMemBackend()
	base := bytes.Repeat([]byte{9}, 100)
	if err := be.PutRecord(1, 0, 1, RecordOf(1, nil, nil, nil, base[:99]), nil); err != nil {
		t.Fatal(err)
	}
	next := RecordOf(2, base, []uint64{1}, nil, base)
	if err := be.PutRecord(1, 0, 2, next, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := be.Get(1, 0, 2); !errors.Is(err, ErrMissingBlock) {
		t.Errorf("a block of a wrong-length base resolved: %v", err)
	}
}

func TestQuickDeltaRoundTrip(t *testing.T) {
	prop := func(base, next []byte) bool {
		checkDelta(t, base, next)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeltaSparseChangesAreSmall(t *testing.T) {
	// Property: changing k bytes touches at most k blocks.
	prop := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw%8) + 1
		base := make([]byte, 16*DeltaBlockSize)
		r.Read(base)
		next := append([]byte(nil), base...)
		for i := 0; i < k; i++ {
			next[r.Intn(len(next))]++
		}
		return len(ComputeDelta(base, next).Blocks) <= k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
