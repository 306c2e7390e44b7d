package svm

import (
	"fmt"
	"testing"
)

// Globals of heapWriter.
const (
	hwCount  = iota // outer iterations completed (one heap write each)
	hwLimit         // iterations to run
	hwAddr          // next heap word to write
	hwStride        // address increment, in words
	hwHeap          // heap size, in words
	hwInner         // compute iterations between two heap writes
	hwX             // the computed value: an LCG state
	hwI             // inner loop counter
	hwGlobals
)

// heapWriter is the program of the end-to-end benchmark's vmheap_delta_mem
// workload: hwInner LCG steps, one heap store, advance the address by
// hwStride, until hwCount reaches hwLimit.
var heapWriter = MustAssemble(fmt.Sprintf(`
outer:  loadg %[1]d
        loadg %[2]d
        lt
        jz done
        loadg %[6]d
        storeg %[8]d
inner:  loadg %[8]d
        jz write
        loadg %[7]d
        push 6364136223846793005
        mul
        push 1442695040888963407
        add
        storeg %[7]d
        loadg %[8]d
        push 1
        sub
        storeg %[8]d
        jmp inner
write:  loadg %[3]d
        loadg %[7]d
        storem
        loadg %[3]d
        loadg %[4]d
        add
        loadg %[5]d
        mod
        storeg %[3]d
        loadg %[1]d
        push 1
        add
        storeg %[1]d
        jmp outer
done:   halt
`, hwCount, hwLimit, hwAddr, hwStride, hwHeap, hwInner, hwX, hwI))

// newHeapWriter boots heapWriter on arch with heapWords of heap, inner
// compute iterations per write and limit writes.
func newHeapWriter(arch Arch, heapWords int, inner, limit int64) *VM {
	m := New(arch, heapWriter, hwGlobals)
	m.Grow(heapWords)
	g := m.Globals
	g[hwLimit], g[hwAddr], g[hwStride], g[hwHeap], g[hwInner], g[hwX] = limit, 1, 213, int64(heapWords), inner, 2
	return m
}

// BenchmarkRunSteps: the vmheap_delta_mem program, as that workload sizes it
// (3332 compute iterations per heap write, a 1 Mi-word heap, write tracking
// on), in 1 Mi-instruction slices, on the reference per-instruction
// interpreter (interp=ref) and on the decoded loop (interp=fast), for a
// 64-bit and a 32-bit little-endian machine. On le32 the limit must fit the
// word: the 64-bit 1<<62 truncates to 0 and the program halts at once.
func BenchmarkRunSteps(b *testing.B) {
	const slice = 1 << 20
	archs := []struct {
		name  string
		arch  Arch
		limit int64
	}{{"le64", Machines[5], 1 << 62}, {"le32", Machines[0], 1 << 30}}
	interps := []struct {
		name string
		run  func(*VM, int) (bool, error)
	}{{"ref", (*VM).refRunSteps}, {"fast", (*VM).RunSteps}}
	for _, in := range interps {
		for _, a := range archs {
			b.Run(fmt.Sprintf("interp=%s/arch=%s", in.name, a.name), func(b *testing.B) {
				m := newHeapWriter(a.arch, 1<<20, 3332, a.limit)
				m.TrackDirty()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if halted, err := in.run(m, slice); halted || err != nil {
						b.Fatalf("halted %v, err %v", halted, err)
					}
				}
				b.ReportMetric(float64(slice)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}
