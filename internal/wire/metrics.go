package wire

import "sync/atomic"

// Global per-type message counters, incremented by every transport send
// and every message between a daemon and its processes (either way) in the
// system. They exist for the Table-1
// audit: a full application run can be accounted for by message type,
// demonstrating which traffic flows through the system (and, notably, that
// data volume dwarfs control volume). The counters are process-global and
// monotonic; benchmarks reset them around a run.
var msgCounts [typeCount]atomic.Uint64

// CountMsg records one sent message of type t.
func CountMsg(t Type) {
	if t.Valid() {
		msgCounts[t].Add(1)
	}
}

// MsgCounts returns a snapshot of the global per-type send counters,
// indexed by Type.
func MsgCounts() [8]uint64 {
	var out [8]uint64
	for t := TInvalid + 1; t < typeCount; t++ {
		out[t] = msgCounts[t].Load()
	}
	return out
}

// ResetMsgCounts zeroes the global counters.
func ResetMsgCounts() {
	for t := range msgCounts {
		msgCounts[t].Store(0)
	}
}

// CopySite classifies where on the data path a payload copy happened. The
// counters back the fast-path copy budget (DESIGN.md): the paper's
// performance claim is that data messages are never copied between software
// layers, so every remaining copy must be attributable to a deliberate
// site.
type CopySite uint8

const (
	// CopyClone is Msg.Clone — the transport-level defensive copy taken
	// for non-pooled sends (modelling the NIC DMA on fastnet).
	CopyClone CopySite = iota
	// CopyBoundary is the MPI API boundary: mpi.Send must give the caller
	// its buffer back, so the payload is staged once into a pooled buffer.
	CopyBoundary
	// CopyCR covers checkpoint/restart bookkeeping copies: sender-side
	// message logs, channel recording, and pending-queue capture. These
	// are off the hot path (they only run while a checkpoint is active or
	// logging is enabled).
	CopyCR
	// CopyColl is collective-internal staging: packing a segment, scatter
	// block, or reduction accumulator into a pooled buffer inside a
	// collective algorithm (distinct from the per-call API boundary copy).
	CopyColl

	copySiteCount
)

// String names the copy site.
func (s CopySite) String() string {
	switch s {
	case CopyClone:
		return "clone"
	case CopyBoundary:
		return "api-boundary"
	case CopyCR:
		return "checkpoint-restart"
	case CopyColl:
		return "collective-staging"
	default:
		return "unknown-copy-site"
	}
}

var (
	copyCounts [copySiteCount]atomic.Uint64
	copyBytes  [copySiteCount]atomic.Uint64
)

// CountCopy records one payload copy of n bytes at site s.
func CountCopy(s CopySite, n int) {
	if s < copySiteCount {
		copyCounts[s].Add(1)
		copyBytes[s].Add(uint64(n))
	}
}

// CopyStats returns per-site (copies, bytes) snapshots, indexed by
// CopySite.
func CopyStats() (counts, bytes [8]uint64) {
	for s := CopySite(0); s < copySiteCount; s++ {
		counts[s] = copyCounts[s].Load()
		bytes[s] = copyBytes[s].Load()
	}
	return counts, bytes
}

// CopiedBytes returns the total payload bytes copied across all sites —
// the number the fast-path benchmarks divide by operations to report
// copied bytes per round trip.
func CopiedBytes() uint64 {
	var total uint64
	for s := CopySite(0); s < copySiteCount; s++ {
		total += copyBytes[s].Load()
	}
	return total
}

// ResetCopyStats zeroes the copy counters.
func ResetCopyStats() {
	for s := range copyCounts {
		copyCounts[s].Store(0)
		copyBytes[s].Store(0)
	}
}

// Collective segment counters. The pipelined collective algorithms split
// large buffers into segments/chunks; these process-global counters record
// how many such internal fragments were put on the wire and how many
// payload bytes they carried, so benchmarks can report segmentation
// overhead per operation.
var (
	collSegCount atomic.Uint64
	collSegBytes atomic.Uint64
)

// CountCollSeg records one collective-internal segment of n payload bytes.
func CountCollSeg(n int) {
	collSegCount.Add(1)
	collSegBytes.Add(uint64(n))
}

// CollSegStats returns the (segments, bytes) counters.
func CollSegStats() (segs, bytes uint64) {
	return collSegCount.Load(), collSegBytes.Load()
}

// ResetCollSegStats zeroes the collective segment counters.
func ResetCollSegStats() {
	collSegCount.Store(0)
	collSegBytes.Store(0)
}
