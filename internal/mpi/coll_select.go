package mpi

// Collective algorithm selection. Small messages take the latency-optimal
// trees; large ones switch to segmented/pipelined or bandwidth-optimal
// algorithms at the crossover points below — the same shape real MPI stacks
// (MPICH, Open MPI) ship. The choice is a function of what the library can
// observe, the message size and the rank count, and nothing else: there is no
// tuning API, because a schedule that could differ between ranks (or between a
// run and its replay) deadlocks, and no caller ever needed another value.
// Tests reach an algorithm below its crossover through its unexported entry
// point (bcastRoot, allreduceRab, treeReduce, reduceScatterTo).
const (
	// collElemAlign is the element width, in bytes, that reduce-scatter-based
	// algorithms must not split (the builtin operators' width). Chunk
	// boundaries are multiples of it.
	collElemAlign = 8
	// bcastSegMin is the smallest message broadcast with the segmented
	// (pipelined) binomial tree rather than as one message, in bcastSegSize
	// segments.
	bcastSegMin  = 64 << 10
	bcastSegSize = 128 << 10
	// bcastVdGMin is the smallest message broadcast with the van de Geijn
	// algorithm (binomial scatter + allgather), which is bandwidth-optimal
	// but pays more latency than the pipelined tree.
	bcastVdGMin = 1 << 20
	// allreduceRabMin is the smallest message reduced with the Rabenseifner
	// algorithm (reduce-scatter + allgather). Below it, the latency-optimal
	// tree reduce + broadcast runs instead.
	allreduceRabMin = 64 << 10
)

// bcastAlgo picks the broadcast algorithm and segment size for a message of
// size bytes on n ranks: a pure function of its arguments, so replicas
// replaying the same broadcast schedule the same messages.
//
//starfish:deterministic
func bcastAlgo(size, n int) (algo byte, seg int) {
	switch {
	case size >= bcastVdGMin && size >= n:
		return collAlgVdG, 0
	case size >= bcastSegMin && size > bcastSegSize:
		return collAlgSeg, bcastSegSize
	}
	return collAlgNaive, 0
}

// allreduceUseRab decides whether a size-byte allreduce on n ranks takes the
// Rabenseifner path: a pure function of its arguments, identical on every
// rank (ranks disagreeing would deadlock in mismatched schedules).
//
//starfish:deterministic
func allreduceUseRab(size, n int) bool {
	return size >= allreduceRabMin && size%collElemAlign == 0 && size/collElemAlign >= n
}

// evenByteCounts splits total bytes over n chunks whose boundaries fall on
// align-byte multiples, front-loading the remainder: chunk sizes differ by
// at most one align unit, and any odd tail (total%align) lands in the last
// chunk. With align 1 this is the plain even split used by broadcast; the
// reduction algorithms pass the element width so no element is torn.
func evenByteCounts(total, n, align int) (counts, offs []int) {
	counts = make([]int, n)
	offs = make([]int, n+1)
	units := total / align
	tail := total % align
	base, rem := units/n, units%n
	for i := 0; i < n; i++ {
		counts[i] = base * align
		if i < rem {
			counts[i] += align
		}
	}
	counts[n-1] += tail
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	return counts, offs
}

// evenGeom is evenByteCounts behind the communicator's one-entry geometry
// cache: steady workloads repeat one message size, and the two slices per
// call would otherwise be the chunked collectives' only steady-state
// allocations. The returned slices are shared — callers must not modify.
func (c *Comm) evenGeom(total, align int) (counts, offs []int) {
	c.mu.Lock()
	if c.collGeomCnts != nil && c.collGeomTotal == total && c.collGeomAlign == align {
		counts, offs = c.collGeomCnts, c.collGeomOffs
		c.mu.Unlock()
		return counts, offs
	}
	c.mu.Unlock()
	counts, offs = evenByteCounts(total, c.cfg.Size, align)
	c.mu.Lock()
	c.collGeomTotal, c.collGeomAlign = total, align
	c.collGeomCnts, c.collGeomOffs = counts, offs
	c.mu.Unlock()
	return counts, offs
}
