package ckpt

import (
	"fmt"
	"sort"

	"starfish/internal/wire"
)

// Backend is the checkpoint repository the C/R stack writes to and restarts
// from. The paper's system has one — a shared file system, here the disk
// Store — whatever the C/R protocol or encoder; an application chooses at
// submission time, next to its C/R protocol, which of three holds its
// checkpoints:
//
//   - StoreDisk: the on-disk Store — durable, shared, slow.
//   - StoreMemory: the replicated in-memory store (internal/rstore) — each
//     daemon holds a RAM shard and pushes k replicas to peers, so recovery
//     never touches a file system and survives node loss.
//   - StoreTiered: Tiered, memory first with asynchronous disk spill.
//
// What a backend stores is a slot per (app, rank, n), holding one record
// (chunk.go): an envelope and the blocks the slot carries, naming the slots
// that carry the rest. Put stores the record that carries a whole image
// (RecordOf with no base); PutRecord stores one its writer built: a rank's
// epoch, or one Pipeline wrote, carrying the blocks that changed since the
// previous slot. All three backends answer every method the same way;
// Pipeline is a Backend too, adding a diff against the last Put in front of
// one.
//
// Implementations must be safe for concurrent use: every local application
// process of every application shares one backend instance per node.
type Backend interface {
	// Put stores RecordOf(n, nil, nil, nil, img) in slot n of (app, rank), with its
	// interval metadata (nil meta stores an empty Meta{Rank, Index}). img
	// stays the caller's: the record is a copy of it.
	Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *Meta) error
	// PutRecord stores a record in slot n of (app, rank). rec is handed
	// over, whether or not the put succeeds: the caller never reads or
	// writes it again, so the backend keeps, pushes and spills it as it is,
	// and gives it back to wire.Pool once it holds it no longer and let no
	// reader have it (RecordOf's records come from there; any other buffer
	// the pool ignores). A replicated backend that kept it here but could
	// not push every copy fails with ErrUnreplicated.
	PutRecord(app wire.AppID, rank wire.Rank, n uint64, rec []byte, meta *Meta) error
	// Get returns the checkpoint image of slot n: its record resolved with
	// the blocks the slots it names carry (ErrMissingBlock when that cannot
	// be done). The image may reference internal storage; callers must
	// treat it as read-only.
	Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *Meta, error)
	// GetEnvelope returns the record stored in slot n (ErrNoCheckpoint for
	// none), which is what Resolve reads: its envelope, then the blocks it
	// carries. A record GC kept only because a surviving one names it is
	// served here and by nothing else. It may reference internal storage.
	GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error)
	// List returns the checkpoint indices available for (app, rank),
	// ascending.
	List(app wire.AppID, rank wire.Rank) ([]uint64, error)
	// Ranks returns the ranks that have at least one checkpoint for app.
	Ranks(app wire.AppID) ([]wire.Rank, error)
	// CommitLine atomically records a committed recovery line for app.
	CommitLine(app wire.AppID, line RecoveryLine) error
	// CommittedLine reads back the last committed recovery line for app, or
	// ErrNoCheckpoint if none was ever committed.
	CommittedLine(app wire.AppID) (RecoveryLine, error)
	// GC removes the checkpoints of (app, rank) older than keepFrom: List no
	// longer reports them and Get answers ErrNoCheckpoint. The record of one
	// that a surviving record names stays stored, for GetEnvelope, until the
	// last such record goes.
	GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error
	// DropApp removes every stored checkpoint of app.
	DropApp(app wire.AppID) error
}

// StoreKind selects a checkpoint storage backend for one application.
type StoreKind uint8

// The storage backends an application can select at submission time.
const (
	// StoreDisk is the on-disk repository (default; zero value decodes as
	// disk for compatibility with pre-backend specs).
	StoreDisk StoreKind = iota
	// StoreMemory is the replicated in-memory repository.
	StoreMemory
	// StoreTiered is memory-first with asynchronous disk spill.
	StoreTiered
)

func (k StoreKind) String() string {
	switch k {
	case StoreDisk:
		return "disk"
	case StoreMemory:
		return "memory"
	case StoreTiered:
		return "tiered"
	default:
		return fmt.Sprintf("ckpt.StoreKind(%d)", uint8(k))
	}
}

// EncodeLine serializes a recovery line; the format is shared by every
// Backend so commit records are portable between storage tiers.
func EncodeLine(line RecoveryLine) []byte {
	ranks := make([]wire.Rank, 0, len(line))
	for r := range line {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	w := wire.NewWriter(4 + 12*len(line))
	w.U32(uint32(len(line)))
	for _, r := range ranks {
		w.U32(uint32(r)).U64(line[r])
	}
	return w.Bytes()
}

// DecodeLine parses a recovery line written by EncodeLine.
func DecodeLine(b []byte) (RecoveryLine, error) {
	r := wire.NewReader(b)
	n := r.Count(12) // a peer's kCommit: no allocation from an unchecked count
	line := make(RecoveryLine, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rank := wire.Rank(r.U32())
		line[rank] = r.U64()
	}
	if r.Err() != nil {
		return nil, ErrBadImage
	}
	return line, nil
}
