package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestPoolClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {255, 0}, {256, 0},
		{257, 1}, {512, 1},
		{513, 2},
		{64 << 10, 16 - 8}, // 2^16 class
		{(64 << 10) + 1, 17 - 8},
		{1 << 24, poolClassCount - 1},
		{(1 << 24) + 1, -1},
	}
	for _, c := range cases {
		if got := poolClassFor(c.n); got != c.class {
			t.Errorf("poolClassFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if poolClassSize(poolClassCount-1) != MaxPayload {
		t.Errorf("largest class %d != MaxPayload %d", poolClassSize(poolClassCount-1), MaxPayload)
	}
}

// recycleAttempts bounds the Put→Get rounds a test waits for a buffer to come
// back: sync.Pool drops a quarter of the Puts at random under the race
// detector, so one round proves nothing there, and a hundred in a row failing
// is not chance.
const recycleAttempts = 100

func TestBufPoolRecycles(t *testing.T) {
	var p BufPool
	b := p.Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	// Same class: must come back from the free list, not a fresh allocation.
	rounds, recycled := uint64(0), false
	for !recycled && rounds < recycleAttempts {
		p.Put(b)
		b2 := p.Get(700)
		recycled, b = &b[0] == &b2[0], b2
		rounds++
	}
	if !recycled {
		t.Errorf("Get after Put never recycled the buffer in %d rounds", rounds)
	}
	// Every round but the last was a dropped Put: a Get that missed.
	gets, puts, misses := p.Stats()
	if gets != 1+rounds || puts != rounds || misses != rounds {
		t.Errorf("Stats = %d/%d/%d after %d rounds, want %d/%d/%d", gets, puts, misses, rounds, 1+rounds, rounds, rounds)
	}
}

func TestBufPoolEdgeSizes(t *testing.T) {
	var p BufPool
	if b := p.Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	// Oversized requests fall back to plain allocation; Put ignores them.
	big := p.Get(MaxPayload + 1)
	if len(big) != MaxPayload+1 {
		t.Fatalf("oversized Get: len=%d", len(big))
	}
	p.Put(big) // must not panic or poison anything
	// Foreign buffers (non-class capacity) are ignored too.
	p.Put(make([]byte, 100))
	_, puts, _ := p.Stats()
	if puts != 0 {
		t.Errorf("puts = %d after only ignorable Puts, want 0", puts)
	}
}

func TestPoolGuardDoublePutPanics(t *testing.T) {
	if !PoolGuardEnabled() {
		t.Fatal("guard mode should be on under go test")
	}
	b := GetBuf(64)
	PutBuf(b)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double PutBuf did not panic")
		}
		if !strings.Contains(r.(string), "not checked out") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	PutBuf(b)
}

func TestPoolGuardForeignPutPanics(t *testing.T) {
	// A buffer with a class-sized capacity that never came from the pool.
	b := make([]byte, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign PutBuf did not panic")
		}
	}()
	PutBuf(b)
}

func TestPoolPoisonOnRelease(t *testing.T) {
	b := GetBuf(128)
	for i := range b {
		b[i] = 0xAA
	}
	keep := b[:cap(b)] // stale alias, as a buggy retainer would hold
	PutBuf(b)
	if !bytes.Equal(keep, bytes.Repeat([]byte{0xDB}, len(keep))) {
		t.Error("released buffer was not poisoned with 0xDB")
	}
	// Drain it back out so the poisoned buffer doesn't leak into other tests'
	// expectations about recycled contents (contents are unspecified anyway).
	_ = GetBuf(128)
}

func TestMsgReleaseOnlyPooled(t *testing.T) {
	// Non-pooled Release must be a no-op for the pool (no guard panic).
	m := Msg{Type: TData, Payload: []byte("hello")}
	m.Release()
	if m.Payload != nil {
		t.Error("Release did not clear the payload")
	}

	// The buffer is back in the pool: a Get of the class returns it.
	for round := 0; round < recycleAttempts; round++ {
		p := GetBuf(32)
		pm := Msg{Type: TData, Payload: p, Pooled: true}
		pm.Release()
		if pm.Payload != nil || pm.Pooled {
			t.Fatal("Release left pooled state behind")
		}
		q := GetBuf(32)
		recycled := &q[:1][0] == &p[:1][0]
		PutBuf(q)
		if recycled {
			return
		}
	}
	t.Errorf("Release never returned the payload to the pool in %d rounds", recycleAttempts)
}

func TestCloneIsNotPooled(t *testing.T) {
	ResetCopyStats()
	p := GetBuf(40)
	m := Msg{Type: TData, Payload: p, Pooled: true}
	c := m.Clone()
	if c.Pooled {
		t.Error("Clone must not inherit pool ownership")
	}
	if &c.Payload[0] == &p[0] {
		t.Error("Clone aliases the original payload")
	}
	counts, bytes_ := CopyStats()
	if counts[CopyClone] != 1 || bytes_[CopyClone] != 40 {
		t.Errorf("CopyStats clone = %d/%d, want 1/40", counts[CopyClone], bytes_[CopyClone])
	}
	m.Release()
}
