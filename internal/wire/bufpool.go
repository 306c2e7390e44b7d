package wire

import (
	"fmt"
	"math/bits"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// BufPool is a size-classed free list of payload/frame buffers for the fast
// data path and the checkpoint path. Buffers are recycled, so a warm
// ping-pong or collective performs zero payload allocations, and a
// checkpoint epoch writes its records into the pages the epoch before it
// released instead of faulting in fresh ones.
//
// Up to 32 KiB a class is a power of two from 256 B, kept in a sync.Pool.
// Above that the runtime hands out whole 8 KiB pages, and a class is a page
// count: Get(n) returns a buffer of ⌈n / 8 KiB⌉ pages, exactly what
// make([]byte, n) would occupy. These are kept on one free list bounded by
// maxFreeBytes, which a garbage collection does not empty: a buffer released
// between two checkpoint epochs is there for the next one.
//
// Ownership discipline (see also Msg.Pooled):
//
//   - Get returns a buffer with exactly one owner: the caller.
//   - Ownership moves with the buffer (sender -> transport -> receiver);
//     the previous owner must not touch the buffer again after handing it
//     off.
//   - The final owner calls Put (or Msg.Release) exactly once, or simply
//     drops the buffer — an unreleased buffer is garbage-collected like any
//     other allocation, so forgetting to release is safe, merely a missed
//     reuse.
//   - Put takes the buffer Get returned, resliced to any length and, above
//     32 KiB, to any capacity, as long as it starts where Get's did: a
//     record trimmed to b[:n:n] goes back as the whole buffer. Any other
//     buffer is accepted only if its capacity is exactly a class size;
//     anything else is ignored, so foreign buffers cannot poison the free
//     lists.
//
// Under `go test` a guard mode is enabled automatically (see SetPoolGuard):
// Put panics on a buffer that is not currently checked out (double release,
// or release of a foreign buffer), and released buffers are poisoned with
// 0xDB so use-after-release surfaces as corrupted data — with -race, as a
// data race against the poisoning write.
type BufPool struct {
	small [smallClasses]sync.Pool // each holds *[]byte with cap == poolClassSize(i)
	// headers holds spare *[]byte boxes so the steady-state Get/Put cycle
	// allocates nothing (storing a bare slice in a sync.Pool would box it
	// on every Put).
	headers sync.Pool

	mu sync.Mutex
	// free holds the released page-class buffers, full capacity, by page
	// count; freeBytes is their total, at most maxFreeBytes.
	free      map[int][][]byte
	freeBytes int
	// out names the page-class buffers checked out, by base address: the
	// page count Get gave each, and a weak pointer that tells the buffer
	// from a later allocation at the same address once it was dropped.
	out      map[uintptr]checkedOut
	outPrune int // len(out) at which stale entries are swept next

	gets, puts, misses atomic.Uint64
}

type checkedOut struct {
	base  weak.Pointer[byte]
	pages int
}

// Size classes: powers of two from 256 B to 32 KiB, then page counts up to
// MaxPayload (16 MiB).
const (
	poolMinShift   = 8
	smallMaxShift  = 15 // 32 KiB: larger buffers are allocated in whole pages
	smallClasses   = smallMaxShift - poolMinShift + 1
	poolPageSize   = 8 << 10 // the runtime's page
	minPages       = 1<<smallMaxShift/poolPageSize + 1
	maxPages       = MaxPayload / poolPageSize
	poolClassCount = smallClasses + maxPages - minPages + 1
	// maxFreeBytes bounds the page-class free list: released buffers past
	// it are dropped to the garbage collector.
	maxFreeBytes = 64 << 20
)

// poolClassSize is the capacity of class i's buffers.
func poolClassSize(i int) int {
	if i < smallClasses {
		return 1 << (poolMinShift + i)
	}
	return (i - smallClasses + minPages) * poolPageSize
}

// poolClassFor returns the index of the smallest class holding n bytes, or
// -1 if n exceeds the largest class.
func poolClassFor(n int) int {
	switch {
	case n <= 1<<poolMinShift:
		return 0
	case n <= 1<<smallMaxShift:
		return bits.Len(uint(n-1)) - poolMinShift
	case n <= MaxPayload:
		return smallClasses + pagesFor(n) - minPages
	}
	return -1
}

func pagesFor(n int) int { return (n + poolPageSize - 1) / poolPageSize }

// Get returns a buffer of length n with one of the pool's class capacities.
// Contents are unspecified (in guard mode, freshly recycled buffers carry
// the poison pattern until overwritten). The caller owns the buffer and
// must eventually Put it back — or drop it — exactly once. n == 0 returns
// nil; n beyond the largest class falls back to a plain allocation that Put
// will ignore.
func (p *BufPool) Get(n int) []byte {
	b, _ := p.GetAlloc(n)
	return b
}

// GetAlloc is Get, additionally reporting whether the pool missed and had
// to allocate — the hook for per-stage allocation counters.
func (p *BufPool) GetAlloc(n int) (b []byte, allocated bool) {
	if n <= 0 {
		return nil, false
	}
	ci := poolClassFor(n)
	if ci < 0 {
		return make([]byte, n), true
	}
	p.gets.Add(1)
	if ci >= smallClasses {
		return p.getPages(n)
	}
	if hp, _ := p.small[ci].Get().(*[]byte); hp != nil {
		b := (*hp)[:n]
		*hp = nil
		p.headers.Put(hp)
		guardCheckout(b)
		return b, false
	}
	p.misses.Add(1)
	b = make([]byte, n, poolClassSize(ci))
	guardCheckout(b)
	return b, true
}

// getPages is GetAlloc for a page class: the last buffer released at n's
// page count, else a new one.
func (p *BufPool) getPages(n int) (b []byte, allocated bool) {
	pages := pagesFor(n)
	p.mu.Lock()
	if l := p.free[pages]; len(l) > 0 {
		b = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[pages] = l[:len(l)-1]
		p.freeBytes -= cap(b)
	} else {
		allocated = true
	}
	p.mu.Unlock()
	if allocated {
		p.misses.Add(1)
		b = make([]byte, pages*poolPageSize)
	}
	b = b[:n]
	// The weak pointer is the runtime's: Make finds the one a recycled
	// buffer already has.
	wp := weak.Make(&b[0])
	p.mu.Lock()
	if p.out == nil {
		p.out = make(map[uintptr]checkedOut)
	}
	p.out[baseOf(b)] = checkedOut{wp, pages}
	if len(p.out) >= p.outPrune {
		// Buffers checked out and dropped leave entries behind; sweep the
		// ones whose buffer is gone, so the map tracks what is live.
		for k, o := range p.out {
			if o.base.Value() == nil {
				delete(p.out, k)
			}
		}
		p.outPrune = 2*len(p.out) + 64
	}
	p.mu.Unlock()
	guardCheckout(b)
	return b, allocated
}

// Put returns a buffer obtained from Get to its free list (see BufPool for
// what it accepts). After Put the caller no longer owns the buffer and must
// not read, write, or Put it again.
func (p *BufPool) Put(b []byte) {
	c := cap(b)
	ci := poolClassFor(c)
	if c == 0 || ci < 0 {
		return
	}
	if c > 1<<smallMaxShift {
		p.putPages(b)
		return
	}
	if poolClassSize(ci) != c {
		return
	}
	guardCheckin(b)
	p.puts.Add(1)
	hp, _ := p.headers.Get().(*[]byte)
	if hp == nil {
		hp = new([]byte)
	}
	*hp = b[:0:c]
	p.small[ci].Put(hp)
}

// putPages is Put for a buffer over 32 KiB. A buffer Get handed out comes
// back whole, whatever it was resliced to; any other is kept only if its
// capacity is a whole number of pages.
func (p *BufPool) putPages(b []byte) {
	base := baseOf(b)
	p.mu.Lock()
	o, ok := p.out[base]
	if ok {
		delete(p.out, base)
	}
	p.mu.Unlock()
	full := b[:cap(b)]
	switch {
	case ok && o.base.Value() == &full[0]:
		// Get made this very buffer with o.pages pages: the memory past
		// cap(b) is its own, whatever b was resliced to.
		full = unsafe.Slice(&full[0], o.pages*poolPageSize)
	case cap(b)%poolPageSize != 0:
		return
	}
	guardCheckin(full)
	p.puts.Add(1)
	pages := cap(full) / poolPageSize
	p.mu.Lock()
	if p.freeBytes+cap(full) <= maxFreeBytes {
		if p.free == nil {
			p.free = make(map[int][][]byte)
		}
		p.free[pages] = append(p.free[pages], full[:0])
		p.freeBytes += cap(full)
	}
	p.mu.Unlock()
}

// FreeBytes reports what the page-class free list holds: its bytes and
// buffers, bounded by maxFreeBytes. It is what the pool keeps alive that no
// caller owns.
func (p *BufPool) FreeBytes() (bytes, buffers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.free {
		buffers += len(l)
	}
	return p.freeBytes, buffers
}

// Stats returns the pool's cumulative checkout, release, and miss counts.
// gets-puts is the number of buffers currently owned by callers (or
// dropped to the GC); misses counts Gets that had to allocate.
func (p *BufPool) Stats() (gets, puts, misses uint64) {
	return p.gets.Load(), p.puts.Load(), p.misses.Load()
}

// Pool is the process-global buffer pool used by the fast data path
// (transport framing, MPI payload staging).
var Pool BufPool

// GetBuf returns a length-n buffer from the global Pool.
func GetBuf(n int) []byte { return Pool.Get(n) }

// PutBuf releases a buffer obtained from GetBuf back to the global Pool.
func PutBuf(b []byte) { Pool.Put(b) }

// ---- guard mode ----

var poolGuard struct {
	on atomic.Bool
	mu sync.Mutex
	// live is keyed by the buffer's base address as a uintptr, NOT a
	// pointer: a buffer that is checked out and then dropped (a legal way
	// to give one up) must stay collectable, so the registry may not
	// retain it. The cost is a stale entry per dropped buffer — at worst a
	// missed diagnostic if a later allocation reuses the address, never a
	// false panic on a correct program.
	live map[uintptr]struct{}
}

func init() {
	// Test binaries are named <pkg>.test; enable ownership checking and
	// poisoning for every `go test` run without any per-test setup.
	if strings.HasSuffix(os.Args[0], ".test") {
		poolGuard.on.Store(true)
	}
	poolGuard.live = make(map[uintptr]struct{})
}

// SetPoolGuard switches the pool's guard/poison mode and returns the
// previous setting. Guard mode is on by default under `go test`. Toggling
// it while buffers are checked out makes the bookkeeping inconsistent, so
// do it only around quiescent points.
func SetPoolGuard(on bool) bool {
	prev := poolGuard.on.Load()
	poolGuard.on.Store(on)
	if !prev && on {
		poolGuard.mu.Lock()
		poolGuard.live = make(map[uintptr]struct{})
		poolGuard.mu.Unlock()
	}
	return prev
}

// PoolGuardEnabled reports whether guard mode is active.
func PoolGuardEnabled() bool { return poolGuard.on.Load() }

// baseOf is the address of b's first byte: what names a buffer, here and in
// the guard's registry.
func baseOf(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

func guardCheckout(b []byte) {
	if !poolGuard.on.Load() {
		return
	}
	poolGuard.mu.Lock()
	poolGuard.live[baseOf(b)] = struct{}{}
	poolGuard.mu.Unlock()
}

func guardCheckin(b []byte) {
	if !poolGuard.on.Load() {
		return
	}
	k := baseOf(b)
	poolGuard.mu.Lock()
	_, ok := poolGuard.live[k]
	if ok {
		delete(poolGuard.live, k)
	}
	poolGuard.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("wire: Put of a %d-byte buffer that is not checked out (double release, or release of a buffer not from the pool)", cap(b)))
	}
	// Poison so a stale reference reads garbage instead of silently
	// observing the next owner's data (and races with the next owner
	// under -race).
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
