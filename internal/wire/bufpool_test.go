package wire

import (
	"bytes"
	"math/rand"
	"runtime"
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
		{32 << 10, smallClasses - 1},                   // the largest power-of-two class
		{(32 << 10) + 1, smallClasses},                 // 5 pages
		{40 << 10, smallClasses},                       // 5 pages
		{(40 << 10) + 1, smallClasses + 1},             // 6 pages
		{64 << 10, smallClasses + 8 - minPages},        // 8 pages
		{(4 << 20) + 1, smallClasses + 513 - minPages}, // 513 pages
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
	for i := range poolClassCount {
		if got := poolClassFor(poolClassSize(i)); got != i {
			t.Fatalf("class %d (%d bytes) maps back to class %d", i, poolClassSize(i), got)
		}
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

// TestPagePoolHoldsWholePages checks that every buffer over 32 KiB the pool
// hands out holds exactly the 8 KiB pages make([]byte, n) would, whether it
// is new or recycled, and that one trimmed to its length comes back whole.
func TestPagePoolHoldsWholePages(t *testing.T) {
	var p BufPool
	rng := rand.New(rand.NewSource(1))
	sizes := []int{32<<10 + 1, 40 << 10, 40<<10 + 1, 1 << 20, 4<<20 + 12345, MaxPayload}
	for range 30 {
		sizes = append(sizes, 32<<10+1+rng.Intn(1<<20))
	}
	for _, n := range sizes {
		pages := (n + 8<<10 - 1) / (8 << 10)
		b := p.Get(n)
		if len(b) != n || cap(b) != pages*8<<10 {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d (%d pages)", n, len(b), cap(b), pages*8<<10, pages)
		}
		p.Put(b[:n:n]) // an exactly sized record goes back whole
		// Another size of the same page count gets the same pages back.
		m := (pages-1)*8<<10 + 1 + rng.Intn(8<<10)
		b2 := p.Get(m)
		if &b2[0] != &b[0] || len(b2) != m || cap(b2) != pages*8<<10 {
			t.Fatalf("Get(%d) after Put of a %d-byte record: same %v, len %d cap %d",
				m, n, &b2[0] == &b[0], len(b2), cap(b2))
		}
		// Dropped, not Put: the free list's bound would otherwise turn away
		// a later size's record once the distinct sizes fill it.
	}
}

// TestPagePoolBoundedAndKept checks the page-class free list: what it holds
// survives garbage collections, and it never holds more than maxFreeBytes.
func TestPagePoolBoundedAndKept(t *testing.T) {
	var p BufPool
	b := p.Get(1 << 20)
	p.Put(b)
	runtime.GC()
	runtime.GC()
	if b2 := p.Get(1 << 20); &b2[0] != &b[0] {
		t.Error("a garbage collection emptied the free list")
	} else {
		p.Put(b2)
	}
	var out [][]byte
	for range 2 * maxFreeBytes / (4 << 20) {
		out = append(out, p.Get(4<<20))
	}
	for _, b := range out {
		p.Put(b)
	}
	held, n := p.FreeBytes()
	if held > maxFreeBytes || held < maxFreeBytes-(4<<20) {
		t.Errorf("free list holds %d bytes in %d buffers, want at most %d and within a buffer of it", held, n, maxFreeBytes)
	}
	_, puts, _ := p.Stats()
	if int(puts) != 1+len(out)+1 {
		t.Errorf("puts = %d, want %d", puts, len(out)+2)
	}
}

// TestPagePoolIgnoresForeign checks that a buffer over 32 KiB the pool did
// not hand out is kept only when its capacity is whole pages: a trimmed
// foreign buffer cannot be grown past what its allocation holds.
func TestPagePoolIgnoresForeign(t *testing.T) {
	var p BufPool
	p.Put(make([]byte, 40000))
	b := p.Get(1 << 20)
	p.Put(b[8<<10 : 8<<10+40000 : 8<<10+40000]) // not where Get's buffer starts
	if _, puts, _ := p.Stats(); puts != 0 {
		t.Errorf("puts = %d after foreign Puts, want 0", puts)
	}
	p.Put(b)
}

// TestReadMsgBufWithinItsPages checks that a payload over 32 KiB read off a
// stream sits in a buffer of its own page count, not a power of two.
func TestReadMsgBufWithinItsPages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for range 20 {
		n := 32<<10 + 1 + rng.Intn(1<<20)
		var buf bytes.Buffer
		if err := WriteMsg(&buf, &Msg{Type: TControl, Payload: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
		m, err := ReadMsgBuf(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if pages := (n + 8<<10 - 1) / (8 << 10); len(m.Payload) != n || cap(m.Payload) > pages*8<<10 {
			t.Errorf("a %d-byte payload (%d pages) sits in a %d-byte buffer", n, pages, cap(m.Payload))
		}
		m.Release()
	}
}
