package ckpt

import "bytes"

// DeltaBlockSize is the granularity of change detection and of content
// addressing (4 KiB, a page).
const DeltaBlockSize = 4096

// Delta and ComputeDelta are what is left of the standalone block-delta
// format that preceded record envelopes: nothing in the system writes or
// applies one any more. They stay because the frozen end-to-end benchmark
// (bench/probes.go) times ComputeDelta as ckpt.delta_diff_ms_p50 and a change
// to this module may not edit bench/; they go when that probe does. The
// shipping diff is Pipeline's diffBlocks, which applies the same block rule
// without the per-block copies.

// Delta is the difference between two state snapshots.
type Delta struct {
	// BaseLen and NewLen are the byte lengths of the base and target
	// states.
	BaseLen, NewLen int
	// Blocks maps block index -> new block content (only changed or
	// newly grown blocks; the last block may be shorter than
	// DeltaBlockSize).
	Blocks map[int][]byte
}

// ComputeDelta returns the block delta that turns base into next: a block is
// included if any byte in it changed, if the state grew into it, or if the
// state's end moved within it.
//
//starfish:deterministic
func ComputeDelta(base, next []byte) *Delta {
	d := &Delta{BaseLen: len(base), NewLen: len(next), Blocks: map[int][]byte{}}
	nBlocks := (len(next) + DeltaBlockSize - 1) / DeltaBlockSize
	for b := 0; b < nBlocks; b++ {
		lo := b * DeltaBlockSize
		hi := min(lo+DeltaBlockSize, len(next))
		newBlock := next[lo:hi]
		if lo < len(base) {
			oldHi := min(lo+DeltaBlockSize, len(base))
			oldBlock := base[lo:oldHi]
			if len(oldBlock) == len(newBlock) && bytes.Equal(oldBlock, newBlock) {
				continue
			}
		}
		d.Blocks[b] = append([]byte(nil), newBlock...)
	}
	return d
}
