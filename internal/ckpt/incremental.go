package ckpt

import (
	"bytes"
	"crypto/sha256"
)

// DeltaBlockSize is the granularity of change detection and of record blocks
// (4 KiB, a page).
const DeltaBlockSize = 4096

// Delta, ComputeDelta, BlockID and HashBlock are what is left of the
// standalone block-delta format and of content addressing: nothing in the
// system writes, applies or hashes with them any more. They stay because the
// frozen end-to-end benchmark (bench/probes.go) times ComputeDelta as
// ckpt.delta_diff_ms_p50 and HashBlock as part of ckpt.hash_seal_ms_p50, and a
// change to this module may not edit bench/; they go when those probes do.
// The shipping diff is RecordOf's, which applies the same block rule without
// the per-block copies.

// BlockID is a block's SHA-256 digest.
type BlockID [32]byte

// HashBlock returns a block's SHA-256 digest.
func HashBlock(b []byte) BlockID { return sha256.Sum256(b) }

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
