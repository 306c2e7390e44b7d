package ckpt

import (
	"bytes"
	"fmt"

	"starfish/internal/wire"
)

// Incremental checkpointing — the optimization family the paper points to
// via libckpt [33] and its future-work direction ("developing newer and
// faster C/R protocols"). Instead of dumping the full state every time, a
// delta checkpoint stores only the blocks that changed since a base
// checkpoint; restart reconstructs the state by applying the delta chain
// to the last full dump.
//
// Deltas operate on fixed-size blocks (DeltaBlockSize) of the raw state
// bytes; a block is included if any byte in it changed, or if the state
// grew into it. State shrinkage is carried explicitly so chains are exact.

// DeltaBlockSize is the granularity of change detection (4 KiB, a page).
const DeltaBlockSize = 4096

const deltaMagic = 0xD1FF0001

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

// ComputeDelta returns the block delta that turns base into next.
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

// Apply reconstructs the target state from base.
func (d *Delta) Apply(base []byte) ([]byte, error) {
	if len(base) != d.BaseLen {
		return nil, fmt.Errorf("ckpt: delta expects base of %d bytes, got %d", d.BaseLen, len(base))
	}
	out := make([]byte, d.NewLen)
	copy(out, base[:min(len(base), d.NewLen)])
	for b, block := range d.Blocks {
		lo := b * DeltaBlockSize
		if lo+len(block) > d.NewLen {
			return nil, fmt.Errorf("ckpt: delta block %d overruns state", b)
		}
		copy(out[lo:], block)
	}
	return out, nil
}

// ApplyInPlace reconstructs the target state reusing base's storage when it
// is large enough, avoiding the per-link allocation of Apply during chain
// replay. The caller must own base exclusively — it is overwritten.
func (d *Delta) ApplyInPlace(base []byte) ([]byte, error) {
	if len(base) != d.BaseLen {
		return nil, fmt.Errorf("ckpt: delta expects base of %d bytes, got %d", d.BaseLen, len(base))
	}
	out := base
	if cap(out) < d.NewLen {
		out = make([]byte, d.NewLen)
		copy(out, base[:min(len(base), d.NewLen)])
	} else {
		grown := out[:d.NewLen]
		// Bytes revealed by growth must be zeroed: they may hold stale
		// content from an earlier, longer state.
		for i := len(base); i < d.NewLen; i++ {
			grown[i] = 0
		}
		out = grown
	}
	for b, block := range d.Blocks {
		lo := b * DeltaBlockSize
		if lo+len(block) > d.NewLen {
			return nil, fmt.Errorf("ckpt: delta block %d overruns state", b)
		}
		copy(out[lo:], block)
	}
	return out, nil
}

// Size returns the encoded payload size of the delta (the savings metric).
func (d *Delta) Size() int {
	n := 16
	for _, b := range d.Blocks {
		n += 8 + len(b)
	}
	return n
}

// Encode serializes the delta.
func (d *Delta) Encode() []byte {
	w := wire.NewWriter(d.Size() + 16)
	w.U32(deltaMagic)
	w.U32(uint32(d.BaseLen)).U32(uint32(d.NewLen))
	w.U32(uint32(len(d.Blocks)))
	// Deterministic order.
	maxB := (d.NewLen + DeltaBlockSize - 1) / DeltaBlockSize
	for b := 0; b < maxB; b++ {
		if block, ok := d.Blocks[b]; ok {
			w.U32(uint32(b)).Bytes32(block)
		}
	}
	return w.Bytes()
}

// DecodeDelta parses an encoded delta.
func DecodeDelta(buf []byte) (*Delta, error) {
	r := wire.NewReader(buf)
	if r.U32() != deltaMagic {
		return nil, ErrBadImage
	}
	d := &Delta{BaseLen: int(r.U32()), NewLen: int(r.U32()), Blocks: map[int][]byte{}}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		b := int(r.U32())
		d.Blocks[b] = append([]byte(nil), r.Bytes32()...)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, ErrBadImage
	}
	return d, nil
}

// DeltaChain reconstructs a state from a full base snapshot and an ordered
// sequence of deltas.
func DeltaChain(base []byte, deltas ...*Delta) ([]byte, error) {
	state := base
	for i, d := range deltas {
		next, err := d.Apply(state)
		if err != nil {
			return nil, fmt.Errorf("ckpt: delta %d: %w", i, err)
		}
		state = next
	}
	return state, nil
}
