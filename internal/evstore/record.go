// Package evstore is the structured event plane of Starfish: a per-node,
// in-memory, bounded store of typed records describing what the cluster did
// — view changes, suspicions, elections, injected faults, replication
// passes, checkpoint epochs, application lifecycle transitions.
//
// The design follows a log-store shape: records land in an append-only
// active chunk; when the chunk fills it is sealed — a per-chunk index
// (seq range, time range, distinct values per key) is built and the record
// bytes are DEFLATE-compressed with the checkpoint block machinery
// (ckpt.SealBlock) — and retention drops whole sealed chunks from the old
// end. Queries evaluate a small filter language over the sealed indexes
// (skipping chunks that cannot match) plus the live active chunk.
//
// Sequence numbers are assigned at receive time, exactly once, and are
// strictly increasing per store. That is the streaming contract the mgmt
// TAIL verb builds on: a client that remembers the last seq it saw can
// reconnect with `seq>N` and resume without gaps or duplicates (within the
// retention window).
//
// Producers never block: Emit enqueues into a buffered FIFO channel and,
// when the store mutex is free (one TryLock), drains it synchronously;
// when the mutex is held — a chunk seal compressing, a query snapshotting —
// a standby goroutine is kicked to sweep instead, and overflow drops the
// record and counts it. Hot paths (the gcs engine loop, rstore pushes)
// therefore pay a few field stores, one channel send and one uncontended
// TryLock per event, independent of consumer speed, with no per-record
// goroutine wakeup.
package evstore

import (
	"fmt"
	"strconv"
	"strings"

	"starfish/internal/wire"
)

// KV is one key=value attribute of a record.
type KV struct {
	K, V string
}

// Record is one structured event.
type Record struct {
	// Seq is the store-assigned sequence number: strictly increasing,
	// never reused, assigned when the store receives the record.
	Seq uint64
	// WriteTS is the receive timestamp in nanoseconds since the Unix
	// epoch, assigned together with Seq.
	WriteTS int64
	// Node is the node whose store received the record (stamped by the
	// store; producers need not set it).
	Node wire.NodeID
	// Component names the emitting subsystem: daemon, gcs, gossip, lwg,
	// chaosnet, rstore, ckpt, proc, cluster.
	Component string
	// Kind is the event type within the component (view-change, suspect,
	// confirm-dead, drop, rereplicate, epoch, ...).
	Kind string
	// App is the application the event concerns; 0 when not app-scoped.
	App wire.AppID
	// Rank is the rank the event concerns; -1 when not rank-scoped.
	Rank int32
	// KV holds free-form attributes.
	KV []KV
}

// NoRank marks a record as not rank-scoped.
const NoRank int32 = -1

// Ev builds a cluster-scoped record (no app, no rank). The component is
// stamped by the Emitter.
func Ev(kind string, kv ...KV) Record {
	return Record{Kind: kind, Rank: NoRank, KV: kv}
}

// EvApp builds an app-scoped record.
func EvApp(kind string, app wire.AppID, kv ...KV) Record {
	return Record{Kind: kind, App: app, Rank: NoRank, KV: kv}
}

// EvRank builds an app+rank-scoped record.
func EvRank(kind string, app wire.AppID, rank wire.Rank, kv ...KV) Record {
	return Record{Kind: kind, App: app, Rank: int32(rank), KV: kv}
}

// F formats one attribute; v renders with fmt.Sprint (events are rare
// enough that the convenience beats the allocation).
func F(k string, v any) KV {
	switch s := v.(type) {
	case string:
		return KV{K: k, V: s}
	}
	return KV{K: k, V: fmt.Sprint(v)}
}

// List formats a slice as a comma-separated attribute value (no spaces, so
// the line format needs no quoting).
func List[T any](xs []T) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, x)
	}
	return b.String()
}

// Get returns the value of attribute k and whether it is present.
func (r *Record) Get(k string) (string, bool) {
	for _, kv := range r.KV {
		if kv.K == k {
			return kv.V, true
		}
	}
	return "", false
}

// needsQuote reports whether a value must be quoted in the line format.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r', '"', '\\':
			return true
		}
	}
	return false
}

func appendVal(b *strings.Builder, v string) {
	if needsQuote(v) {
		b.WriteString(strconv.Quote(v))
	} else {
		b.WriteString(v)
	}
}

// String renders the record in the wire line format used by the mgmt
// EVENTS/TAIL verbs:
//
//	seq=12 ts=1754500000123456789 node=3 component=gcs kind=view-change app=7 rank=0 view=4
//
// Every field is key=value; values containing spaces or quotes are
// Go-quoted. seq= is always the first field, so a tail client can recover
// its resume point from the line prefix alone. app= and rank= are omitted
// when the record is not app- or rank-scoped.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d ts=%d node=%d component=", r.Seq, r.WriteTS, r.Node)
	appendVal(&b, r.Component)
	b.WriteString(" kind=")
	appendVal(&b, r.Kind)
	if r.App != 0 {
		fmt.Fprintf(&b, " app=%d", r.App)
	}
	if r.Rank >= 0 {
		fmt.Fprintf(&b, " rank=%d", r.Rank)
	}
	for _, kv := range r.KV {
		b.WriteByte(' ')
		b.WriteString(kv.K)
		b.WriteByte('=')
		appendVal(&b, kv.V)
	}
	return b.String()
}

// LineSeq extracts the sequence number from a record line produced by
// Record.String. It is what a tail client uses to track its resume point.
func LineSeq(line string) (uint64, bool) {
	rest, ok := strings.CutPrefix(line, "seq=")
	if !ok {
		return 0, false
	}
	num, _, _ := strings.Cut(rest, " ")
	seq, err := strconv.ParseUint(num, 10, 64)
	return seq, err == nil
}

// Registry declares every (component, kind) pair the runtime emits. It is
// the contract between producers and queries: the evcheck analyzer derives
// the kinds actually passed to Ev/EvApp/EvRank and rejects any that are
// not declared here, and checks every kind referenced by a query (chaos
// soak assertions, EXPERIMENTS.md transcripts, starfishctl docs) against
// this table — a typo'd kind otherwise fails silently as an eternally
// empty query result.
//
// The lwg component re-emits the gcs engine kinds: each lightweight group
// runs its own gcs engine instance whose records are stamped "lwg" by the
// group's emitter.
var Registry = map[string][]string{
	"daemon": {"submit", "delete", "app-done", "app-failed", "rank-lost",
		"restarting", "running", "suspend", "resume"},
	"ckpt": {"epoch"},
	"gcs": {"suspect", "excluded", "view-change", "election-start",
		"election-win", "election-abort", "election-stalled"},
	"lwg": {"suspect", "excluded", "view-change", "election-start",
		"election-win", "election-abort", "election-stalled"},
	"gossip": {"ping-timeout", "evidence", "suspect", "corroborate",
		"confirm-dead", "refute"},
	"proc":   {"start", "done", "restore", "checkpoint", "commit"},
	"rstore": {"view", "push-failure", "gc", "rereplicate"},
	"chaosnet": {"set-faults", "clear-faults", "partition",
		"partition-oneway", "heal", "kill-dials", "allow-dials",
		"reset-link", "drop", "delay", "dup"},
	"cluster": {"add-node", "kill", "leave"},
}

// KnownKind reports whether kind is declared in the Registry for any
// component.
func KnownKind(kind string) bool {
	for _, kinds := range Registry {
		for _, k := range kinds {
			if k == kind {
				return true
			}
		}
	}
	return false
}

// KnownFor reports whether kind is declared for the given component.
func KnownFor(component, kind string) bool {
	for _, k := range Registry[component] {
		if k == kind {
			return true
		}
	}
	return false
}

// Sink accepts records. Store and Emitter implement it; instrumented
// components hold a Sink so tests can wire any collector, and a nil Sink
// (or nil *Emitter inside one) means "event plane disabled".
type Sink interface {
	Emit(r Record)
}

// Emitter is a component-tagged, non-blocking front end to a store. A nil
// Emitter discards records, so wiring code can hand out
// store.Emitter("gcs") without nil-checking the store.
type Emitter struct {
	st   *Store
	comp string
}

// Emit stamps the emitter's component (when the record has none) and hands
// the record to the store without blocking. On overflow the record is
// dropped and counted.
func (e *Emitter) Emit(r Record) {
	if e == nil || e.st == nil {
		return
	}
	if r.Component == "" {
		r.Component = e.comp
	}
	e.st.Emit(r)
}
