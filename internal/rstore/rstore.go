// Package rstore implements a replicated in-memory checkpoint store.
//
// Each Starfish daemon embeds one rstore.Store: an in-RAM shard of checkpoint
// images plus a small replication protocol that keeps k copies of every image
// on k daemons over the ordinary wire/vni transport. Recovery after a node
// failure then restores a rank from surviving RAM instead of a shared file
// system — the dominant cost of restart in the paper's disk-based design.
//
// Design (the rule is ReStore's: recovery reads the surviving replica where it
// lies, and redistribution after a failure moves only the lost share):
//
//   - Placement is rendezvous (highest-random-weight) hashing: HolderOrder
//     ranks the view's members for (app, rank) by a hash of (app, rank,
//     member). Every node derives the same order from the same view, so no
//     directory service is needed, and a member's weight does not depend on
//     who else is in the view, so a death changes only the holder sets that
//     contained the dead member — by one substitution at their tail.
//   - The writer's own copy is replica #1 (it is about to be the one reading
//     it back): a Put pushes to the first k-1 members of the order other than
//     the writer. Every copy carries a tag naming that Put, so each holder
//     knows whose copy is first and can tell these bytes from an earlier
//     incarnation's checkpoint of the same index.
//   - A lightweight index of which checkpoints exist (app, rank, n) is
//     replicated to every member, so List/Ranks/GatherLine work on any node,
//     including nodes that never hosted the rank. Committed recovery lines
//     are likewise broadcast.
//   - A slot holds one record (ckpt's chunk.go): the blocks the slot carries,
//     each named by its position — this slot, its index — and checked by its
//     crc32c, plus the slot that carries every other block. Put stores the
//     record that carries a whole image (ckpt.RecordOf with no base),
//     PutRecord one its writer built: a rank's epoch, or one ckpt.Pipeline
//     wrote. Whether a slot is listed or only kept for the blocks it carries
//     travels with it in every frame.
//   - On a view change the daemon calls UpdateView; a background pass then
//     re-replicates what a restart can still need (each app's committed line
//     and anything newer, and every record those name). Exactly one holder
//     acts for a slot — the writer while it is a member, else the first
//     member of the order — and it asks each target "have?" before sending
//     (kHas), so a death moves the copies it took and nothing else.
//   - GC deletes whole records: those no surviving record names. One that a
//     surviving carry list still names stays, collected — neither listed nor
//     restorable — until the last record naming it goes.
//   - The store sends what it stores: a slot goes into the frame as the
//     stored slice itself (fastnet copies it once, into a pool buffer the
//     receiver keeps; TCP writev's it), and Get returns the store's internal
//     buffer (callers treat images as read-only), so a restore from local RAM
//     never copies the image and a restore from a peer's RAM copies it once,
//     in the transport.
//   - A slot's bytes go back to wire.Pool when the store drops them — on
//     collection, replacement, a cut-down, DropApp or Close — if it owns
//     them and let nobody else have them (entry.owned, entry.lent). The
//     writer's record and a pushed replica are owned (the writer's once its
//     pushes returned); whatever a Get, a GetEnvelope, a peer fetch or the
//     snapshot behind a push let out is never given back, only dropped.
//
// Pushing a slot to a peer (pushSlot) is one exchange, kPut + kPutData: the
// slot's tag, kind and metadata, then the stored bytes in a frame of their
// own. The receiver checks a record's blocks against their crc32c and
// installs it only if it holds every slot the record names; otherwise its kOK
// lists the slot numbers it lacks, and the pusher sends those first and the
// pair again — the closing move of a push racing a GC, or re-replicating a
// rank's records to a member that holds none of them. A peer that saw half of
// the pair says so, and the pair is sent again.
//
// Holders materialize the image behind the newest record of each (app, rank)
// as records arrive (s.resolved): a record that carries its whole image is its
// own (ckpt.Record.Image), any other patches the previous image with the
// blocks it carries, so a restore is a map lookup, not a walk over the slots a
// carry list names.
//
// The store speaks TControl messages on its own listener, daemon-to-daemon —
// the one route Table 1 allows for system traffic.
package rstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Protocol message kinds (wire.Msg.Kind on TControl messages).
//
// Slots travel in their own frame (kPutData/kGetData, tag-paired with the
// request) rather than being concatenated with the metadata, so the frame's
// payload can be the stored slice itself. "header" below is always the slot's
// tag, kind and encoded ckpt.Meta (encodeSlotHeader).
const (
	kPut      uint16 = 0x60 // header: App, Src=rank, Seq=n; payload: header; followed by kPutData; reply kOK
	kGet      uint16 = 0x61 // header: App, Src=rank, Seq=n
	kGetOK    uint16 = 0x62 // payload: header; followed by kGetData
	kGetMiss  uint16 = 0x63 // "not held", and the answer to anything malformed or half-seen
	kIndex    uint16 = 0x64 // payload: count, then (app, rank, n) entries
	kCommit   uint16 = 0x65 // header: App; payload: encoded recovery line
	kLineGet  uint16 = 0x66 // header: App
	kLineOK   uint16 = 0x67 // payload: encoded recovery line
	kLineMiss uint16 = 0x68
	kGC       uint16 = 0x69 // header: App, Src=rank, Seq=keepFrom
	kDrop     uint16 = 0x6A // header: App
	kOK       uint16 = 0x6B // ack; to kPut, payload: the u64 slots the record names that are missing (none: installed)
	kPutData  uint16 = 0x6C // second frame of kPut: the slot bytes
	kGetData  uint16 = 0x6D // second frame of kGetOK: the slot bytes
	kHas      uint16 = 0x76 // header: App, Src=rank, Seq=n; payload: u64 slot tag; reply kOK (held) or kGetMiss
)

// Slot kinds, carried in the header of every frame that moves a slot.
const (
	slotRecord   uint8 = 1 // a record, listed and restorable
	slotRetained uint8 = 2 // a collected record a surviving record still names
)

// Config parameterizes a Store.
type Config struct {
	// Node is this daemon's identity; it must appear in every membership
	// passed to UpdateView.
	Node wire.NodeID
	// Transport carries replication traffic (the same fastnet/TCP transport
	// the daemons use).
	Transport vni.Transport
	// Addr is the listen address for peer replication connections.
	Addr string
	// PeerAddr maps a member to its rstore listen address.
	PeerAddr func(wire.NodeID) string
	// Replicas is the target number of in-memory copies of each checkpoint,
	// counting the writer's own (default 2, i.e. survive one node loss).
	Replicas int
	// RequestTimeout bounds one peer request/reply round trip (default 2s).
	// A request whose reply does not arrive in time drops the connection
	// (so a desynchronized stream can never pair replies with the wrong
	// requests) and counts as a failure.
	RequestTimeout time.Duration
	// RequestRetries is how many extra attempts a failed peer request gets
	// (default 2). Every peer operation is idempotent — puts overwrite,
	// reads are pure — so retrying after a timeout or a dropped reply is
	// always safe.
	RequestRetries int
	// Logf, when non-nil, receives replication diagnostics.
	Logf func(string, ...any)
	// Events optionally receives structured records about view updates,
	// replication pushes, re-replication passes and GC (the daemon passes
	// its store's "rstore" emitter).
	Events evstore.Sink
}

type key struct {
	app  wire.AppID
	rank wire.Rank
	n    uint64
}

type entry struct {
	img  []byte
	meta *ckpt.Meta
	kind uint8
	// rec is img decoded: parsed once on the way in, read by GC,
	// materialization, pushes and Get.
	rec *ckpt.Record
	// tag names the Put that produced these bytes: the writer's node in the
	// high half, the writer's put count in the low. It travels with every
	// copy, so each holder knows whose copy is replica #1, and a holder asked
	// "have?" answers for these bytes, not for an earlier incarnation's
	// checkpoint of the same index.
	tag uint64
	// owned: img is a pool buffer only the store holds; lent: a snapshot of
	// the entry let img out. Bytes go back to wire.Pool only when owned and
	// never lent (release).
	owned, lent bool
}

func (e *entry) writer() wire.NodeID { return wire.NodeID(e.tag >> 32) }

// release gives e's bytes back to wire.Pool if the store may: it owns them
// and lent them to nobody. Callers hold s.mu and drop the bytes after.
func (e *entry) release() {
	if e.owned && !e.lent {
		wire.PutBuf(e.img)
	}
}

// sameBytes reports whether a and b are one buffer: they start at the same
// byte.
func sameBytes(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// encodeSlotHeader is the first half of every frame pair that moves a slot.
func encodeSlotHeader(tag uint64, kind uint8, meta *ckpt.Meta) []byte {
	return append(append(binary.BigEndian.AppendUint64(nil, tag), kind), meta.Encode()...)
}

func decodeSlotHeader(b []byte) (uint64, uint8, *ckpt.Meta, error) {
	if len(b) < 9 || b[8] != slotRecord && b[8] != slotRetained {
		return 0, 0, nil, ckpt.ErrBadImage
	}
	meta, err := ckpt.DecodeMeta(b[9:])
	return binary.BigEndian.Uint64(b), b[8], meta, err
}

// decodeSlot parses the bytes of slot k stored as kind, checking a record's
// blocks against their crc32c: a record from a peer is installed whole or not
// at all.
func decodeSlot(k key, kind uint8, b []byte) (*ckpt.Record, error) {
	rec, err := ckpt.DecodeRecord(b)
	if err != nil {
		return nil, err
	}
	if err := checkRecord(k.n, kind, rec); err != nil {
		return nil, err
	}
	return rec, rec.Verify()
}

// checkRecord refuses a record stored in a slot it was not written for, and
// a cut-down record anywhere but a collected slot: it resolves to nothing.
func checkRecord(n uint64, kind uint8, rec *ckpt.Record) error {
	if rec.Slot != n {
		return fmt.Errorf("rstore: record of slot #%d stored as #%d", rec.Slot, n)
	}
	if rec.Kind == ckpt.RecKept && kind != slotRetained {
		return fmt.Errorf("rstore: a cut-down record stored as a checkpoint")
	}
	return nil
}

// resolvedImage is the materialized image behind one record. Once a reader
// was handed raw (published) it is immutable — so is one that is a record's
// own data — and until then the rank's next record is applied onto it in
// place.
type resolvedImage struct {
	raw       []byte
	published bool
}

// Stats is a snapshot of one store's replica health and size counters.
type Stats struct {
	Node     wire.NodeID
	Members  int
	Replicas int
	// Images and Bytes count locally resident slots and the bytes their
	// records take.
	Images int
	Bytes  int64
	// IndexEntries counts cluster-wide known checkpoints (the replicated
	// index), Commits the apps with a known committed line.
	IndexEntries int
	Commits      int
	// UnderReplicated counts images whose first replica is here and that
	// a restart can still need, with a push target that has not
	// acknowledged its copy.
	UnderReplicated int
	// Pushes/PushFailures count replica push attempts, PushesSkipped the
	// re-replication pushes a holder's "have" answer made unnecessary;
	// PeerFetches counts Get requests served from a peer's RAM,
	// PeerFetchMisses failed ones.
	Pushes          uint64
	PushFailures    uint64
	PushesSkipped   uint64
	PeerFetches     uint64
	PeerFetchMisses uint64
	// BytesReplicated is the total payload bytes this node actually pushed
	// to peers (headers, images and records) — the savings metric of delta
	// replication.
	BytesReplicated uint64
}

// String formats the snapshot as a single management-protocol-friendly line.
func (st Stats) String() string {
	return fmt.Sprintf(
		"node %d members %d replicas %d images %d bytes %d index %d commits %d under-replicated %d pushes %d push-failures %d pushes-skipped %d peer-fetches %d peer-fetch-misses %d replicated-bytes %d",
		st.Node, st.Members, st.Replicas, st.Images, st.Bytes, st.IndexEntries,
		st.Commits, st.UnderReplicated, st.Pushes, st.PushFailures, st.PushesSkipped,
		st.PeerFetches, st.PeerFetchMisses, st.BytesReplicated)
}

// peerConn is one lazily dialed, lockstep request/response connection to a
// peer store. The mutex serializes requests; each request carries a tag the
// reply must echo, so a duplicated or stale reply on the stream is discarded
// instead of being paired with the wrong request.
type peerConn struct {
	mu   sync.Mutex
	conn vni.Conn
	tag  int32
}

// Store is a replicated in-memory checkpoint repository. It implements
// ckpt.Backend; Get may return internal buffers, which callers must treat as
// read-only (the Backend contract).
type Store struct {
	cfg Config
	ln  vni.Listener

	// bg tracks background view-change work (re-replication passes and
	// stale-peer teardown). Close waits for it: cfg.Logf is often a
	// test's t.Logf, which must not be called after the test returns.
	bg sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	members []wire.NodeID
	viewGen uint64
	images  map[key]*entry
	index   map[wire.AppID]map[wire.Rank]map[uint64]bool
	commits map[wire.AppID]ckpt.RecoveryLine
	// acked records which peers acknowledged holding a replica of a key.
	acked map[key]map[wire.NodeID]bool
	peers map[wire.NodeID]*peerConn
	// resolved caches the image behind a rank's newest record, materialized
	// eagerly as records arrive so a restore is pointer-speed.
	resolved map[key]*resolvedImage

	// puts numbers this node's Puts (the low half of an image tag).
	puts uint32

	pushes, pushFailures, pushesSkipped, peerFetches, peerFetchMisses, repBytes uint64
}

var _ ckpt.Backend = (*Store)(nil)

// New opens a store: it starts listening for peer replication traffic and
// begins with a singleton membership of just cfg.Node.
func New(cfg Config) (*Store, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.RequestRetries < 0 {
		cfg.RequestRetries = 0
	} else if cfg.RequestRetries == 0 {
		cfg.RequestRetries = 2
	}
	ln, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("rstore: listen %s: %w", cfg.Addr, err)
	}
	s := &Store{
		cfg:      cfg,
		ln:       ln,
		members:  []wire.NodeID{cfg.Node},
		images:   make(map[key]*entry),
		index:    make(map[wire.AppID]map[wire.Rank]map[uint64]bool),
		commits:  make(map[wire.AppID]ckpt.RecoveryLine),
		acked:    make(map[key]map[wire.NodeID]bool),
		peers:    make(map[wire.NodeID]*peerConn),
		resolved: make(map[key]*resolvedImage),
	}
	//starfish:allow goleak accept loop returns when Close closes s.ln
	go s.serve()
	return s, nil
}

// Close stops serving peers, drops all connections and drops the slots it
// holds, giving back to wire.Pool the bytes it owns. What a Get handed out
// stays readable; nothing is replicated or served after.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for k := range s.images {
		s.deleteImageLocked(k)
	}
	peers := s.peers
	s.peers = map[wire.NodeID]*peerConn{}
	s.mu.Unlock()
	for _, pc := range peers {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
	err := s.ln.Close()
	// Wait for background re-replication: its per-step closed checks and
	// the now-failing peer requests bound the wait, and afterwards nothing
	// can call cfg.Logf again.
	s.bg.Wait()
	return err
}

func (s *Store) event(r evstore.Record) {
	if s.cfg.Events != nil {
		s.cfg.Events.Emit(r)
	}
}

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// HolderOrder ranks members as holders of (app, rank)'s checkpoints by
// rendezvous hashing: descending weight, where a member's weight is a hash of
// (app, rank, member). It is a pure function of its arguments, whatever order
// members comes in, and because a weight does not depend on who else is in
// the view, removing a member leaves the relative order of the rest untouched.
// The first min(k, len(members)) of the order are the key's holders.
func HolderOrder(app wire.AppID, rank wire.Rank, members []wire.NodeID) []wire.NodeID {
	keyHash := mix64(uint64(app)<<32 | uint64(uint32(rank)))
	weight := func(n wire.NodeID) uint64 { return mix64(keyHash + uint64(n)*0x9e3779b97f4a7c15) }
	out := append([]wire.NodeID(nil), members...)
	slices.SortFunc(out, func(a, b wire.NodeID) int {
		return cmp.Or(cmp.Compare(weight(b), weight(a)), cmp.Compare(a, b))
	})
	return out
}

// pushTargetsLocked lists the peers this node keeps supplied with slot k: none
// unless the slot's first replica is here — the writer's copy while the writer
// is a member, else that of the first member in the key's order — and then
// the first min(Replicas, members)-1 members of the order other than this
// node. Exactly one holder answers for a slot, so a view change never makes
// two nodes push the same image. Callers hold s.mu.
func (s *Store) pushTargetsLocked(k key, e *entry) []wire.NodeID {
	order := HolderOrder(k.app, k.rank, s.members)
	first := e.writer()
	if len(order) > 0 && !slices.Contains(order, first) {
		first = order[0]
	}
	if first != s.cfg.Node {
		return nil
	}
	var out []wire.NodeID
	for _, h := range order {
		if h != s.cfg.Node && len(out) < min(s.cfg.Replicas, len(order))-1 {
			out = append(out, h)
		}
	}
	return out
}

// owedLocked lists the push targets of slot k that have not acknowledged a
// copy, if a restart can still read the slot: anything at or past its app's
// committed line (everything, for an app that has none), and every slot the
// line's record names — a record past the line names no earlier slot the
// line's does not. A node that does not hold the line's record counts the
// slot as needed. Callers hold s.mu.
func (s *Store) owedLocked(k key, e *entry) []wire.NodeID {
	if line, committed := s.commits[k.app]; committed && k.n < line[k.rank] {
		if at, held := s.images[key{k.app, k.rank, line[k.rank]}]; held {
			if _, named := slices.BinarySearch(at.rec.Names, k.n); !named {
				return nil
			}
		}
	}
	return slices.DeleteFunc(s.pushTargetsLocked(k, e), func(h wire.NodeID) bool { return s.acked[k][h] })
}

// UpdateView installs a new membership (sorted copy taken) and starts a
// background re-replication pass restoring the replication target for every
// image whose first replica is here. Acks from departed members are pruned so
// the under-replication counter reflects live copies only.
func (s *Store) UpdateView(members []wire.NodeID) {
	ms := append([]wire.NodeID(nil), members...)
	slices.Sort(ms)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.members = ms
	s.viewGen++
	gen := s.viewGen
	for k, acks := range s.acked {
		for n := range acks {
			if !slices.Contains(ms, n) {
				delete(acks, n)
			}
		}
		if len(acks) == 0 {
			delete(s.acked, k)
		}
	}
	for n, pc := range s.peers {
		if !slices.Contains(ms, n) {
			delete(s.peers, n)
			s.bg.Add(1)
			go func(pc *peerConn) {
				defer s.bg.Done()
				pc.mu.Lock()
				if pc.conn != nil {
					pc.conn.Close()
					pc.conn = nil
				}
				pc.mu.Unlock()
			}(pc)
		}
	}
	s.bg.Add(1)
	s.mu.Unlock()
	s.event(evstore.Ev("view",
		evstore.F("gen", gen), evstore.F("members", evstore.List(ms))))
	go func() {
		defer s.bg.Done()
		s.reReplicate(gen)
	}()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Node:            s.cfg.Node,
		Members:         len(s.members),
		Replicas:        s.cfg.Replicas,
		Images:          len(s.images),
		Commits:         len(s.commits),
		Pushes:          s.pushes,
		PushFailures:    s.pushFailures,
		PushesSkipped:   s.pushesSkipped,
		PeerFetches:     s.peerFetches,
		PeerFetchMisses: s.peerFetchMisses,
		BytesReplicated: s.repBytes,
	}
	for k, e := range s.images {
		st.Bytes += int64(len(e.img))
		if len(s.owedLocked(k, e)) > 0 {
			st.UnderReplicated++
		}
	}
	for _, ranks := range s.index {
		for _, ns := range ranks {
			st.IndexEntries += len(ns)
		}
	}
	return st
}

// indexAddLocked records that checkpoint (app, rank, n) exists somewhere in
// the cluster. Callers hold s.mu.
func (s *Store) indexAddLocked(app wire.AppID, rank wire.Rank, n uint64) {
	ranks := s.index[app]
	if ranks == nil {
		ranks = make(map[wire.Rank]map[uint64]bool)
		s.index[app] = ranks
	}
	ns := ranks[rank]
	if ns == nil {
		ns = make(map[uint64]bool)
		ranks[rank] = ns
	}
	ns[n] = true
}

// ---------------------------------------------------------------------------
// ckpt.Backend implementation
// ---------------------------------------------------------------------------

// Put stores img as the record that carries all of it: the one copy that
// makes the caller's buffer the store's.
func (s *Store) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *ckpt.Meta) error {
	return s.PutRecord(app, rank, n, ckpt.RecordOf(n, nil, nil, nil, img), meta)
}

// PutRecord stores a record, handed over, in local RAM — replica #1 — pushes
// the other Replicas-1 copies to the first members of the key's order, and
// replicates the index entry to every member. The store keeps and pushes rec
// itself, and owns it once the pushes returned: until then they read it, so
// nothing gives it back to wire.Pool. A push that fails fails the put with
// ckpt.ErrUnreplicated, naming the peer: the local copy stays (the
// under-replication counter and the next view change's re-replication pass
// pick it up), but a checkpoint held by its writer's node alone must not be
// acknowledged for a round, or a line could commit on it and its commit
// collect every older copy.
func (s *Store) PutRecord(app wire.AppID, rank wire.Rank, n uint64, slot []byte, meta *ckpt.Meta) error {
	k := key{app, rank, n}
	rec, err := ckpt.DecodeRecord(slot)
	if err == nil {
		err = checkRecord(n, slotRecord, rec)
	}
	if err != nil {
		wire.PutBuf(slot)
		return fmt.Errorf("rstore: put #%d of app %d rank %d: %w", n, app, rank, err)
	}
	if meta == nil {
		meta = &ckpt.Meta{Rank: k.rank, Index: k.n}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		wire.PutBuf(slot)
		return fmt.Errorf("rstore: store closed")
	}
	s.puts++ // the tag names this put: this node, its put count
	tag := uint64(s.cfg.Node)<<32 | uint64(s.puts)
	targets := s.pushTargetsLocked(k, s.setSlotLocked(k, slot, slotRecord, rec, meta, tag, false))
	delete(s.acked, k) // acks were for the bytes this put replaces
	s.indexAddLocked(k.app, k.rank, k.n)
	s.materializeLocked(k)
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()

	// Push the caller's slot, not the entry's: once published in s.images, a
	// concurrent replica push (handlePut) may swap the entry's fields.
	e := entry{img: slot, kind: slotRecord, rec: rec, meta: meta, tag: tag}
	var failed []error
	for _, h := range targets {
		if _, err := s.pushSlot(h, k, e); err != nil {
			s.logf("[rstore %d] push #%d of app %d rank %d to node %d: %v",
				s.cfg.Node, k.n, k.app, k.rank, h, err)
			s.event(evstore.EvRank("push-failure", k.app, k.rank,
				evstore.F("n", k.n), evstore.F("peer", h)))
			failed = append(failed, fmt.Errorf("push to node %d: %w", h, err))
		}
	}
	s.broadcastIndex(members, []key{k})
	s.mu.Lock()
	if e := s.images[k]; e != nil && sameBytes(e.img, slot) {
		e.owned = true // the pushes are done with it
	}
	closed := s.closed
	s.mu.Unlock()
	// A put the store was closed under fails too: its pushes
	// may have died with the store, and a node going down must not vouch for
	// a checkpoint that exists nowhere else.
	if closed {
		return fmt.Errorf("rstore: store closed")
	}
	if len(failed) > 0 {
		return fmt.Errorf("rstore: put #%d of app %d rank %d: %w: %w", k.n, k.app, k.rank, ckpt.ErrUnreplicated, errors.Join(failed...))
	}
	return nil
}

// pushSlot replicates slot k, held as e, to a peer in one kPut + kPutData
// exchange and records the ack. It returns the bytes that crossed, whether or
// not the push completed.
//
// The header rides in the kPut frame and the stored bytes themselves are the
// payload of the kPutData frame: nothing is staged, so the only copy is the
// transport's own (fastnet's exact-size clone, TCP's writev). Transport
// failures are retried below this loop (exchange); the loop is for a peer
// that answers "not yet": it lacks slots the record names — it never had
// them, or a GC took them between our pushes — and exactly those are pushed
// first, or it saw half of the pair, and the pair is sent again (puts are
// idempotent overwrites). A record goes only after the slots it names that
// the peer may hold another incarnation's bytes of (pushOwedNames).
func (s *Store) pushSlot(peer wire.NodeID, k key, e entry) (int, error) {
	hdr := encodeSlotHeader(e.tag, e.kind, e.meta)
	put := &wire.Msg{Type: wire.TControl, Kind: kPut, App: k.app, Src: k.rank, Seq: k.n, Payload: hdr}
	data := &wire.Msg{Type: wire.TControl, Kind: kPutData, App: k.app, Src: k.rank, Seq: k.n, Payload: e.img}
	sent, err := s.pushOwedNames(peer, k, e)
	if err == nil {
		for attempt := 0; ; attempt++ {
			var replies []wire.Msg
			if replies, err = s.exchange(peer, []*wire.Msg{put, data}, nil); err != nil {
				break
			}
			sent += len(hdr) + len(e.img)
			missing := replies[0].Payload
			if replies[0].Kind != kOK || len(missing)%8 != 0 {
				err = fmt.Errorf("rstore: unexpected reply kind %#x", replies[0].Kind)
			} else if len(missing) == 0 {
				break
			} else {
				// Push what it lacks — only slots the record names and this
				// node holds — and the pair again.
				err = fmt.Errorf("rstore: node %d lacked slots record #%d names", peer, k.n)
				for ; len(missing) > 0; missing = missing[8:] {
					n := key{k.app, k.rank, binary.BigEndian.Uint64(missing)}
					named, held := s.lend(n)
					if !held || !slices.Contains(e.rec.Names, n.n) {
						break
					}
					nested, perr := s.pushSlot(peer, n, named)
					if sent += nested; perr != nil {
						err = perr
						break
					}
				}
			}
			if attempt >= s.cfg.RequestRetries || s.isClosed() {
				break
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushes++
	s.repBytes += uint64(sent)
	if err != nil {
		s.pushFailures++
		return sent, err
	}
	s.ackLocked(k, peer)
	return sent, nil
}

// pushOwedNames brings the slots a record names up to date on peer before
// the record goes. A peer installs a record once every slot it names is
// present, whoever's bytes those are: after a rollback it may still hold the
// dead incarnation's slot of an index this one rewrote, if the push of the
// rewrite failed. So each named slot the peer has not acknowledged since it
// was last written here is pushed, unless the peer answers that it holds the
// slot's tag. When no push failed every named slot is acknowledged and this
// sends nothing. It returns the bytes that crossed.
func (s *Store) pushOwedNames(peer wire.NodeID, k key, e entry) (int, error) {
	sent := 0
	for _, n := range e.rec.Names {
		nk := key{k.app, k.rank, n}
		s.mu.Lock()
		named, owed := s.images[nk]
		owed = owed && !s.acked[nk][peer]
		var snap entry
		if owed {
			named.lent = true // the push reads it unlocked
			snap = *named
		}
		s.mu.Unlock()
		if !owed || s.peerHas(peer, nk, snap.tag) {
			continue
		}
		nested, err := s.pushSlot(peer, nk, snap)
		if sent += nested; err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// lend snapshots slot k's entry, under mu (a concurrent replica push,
// handlePut, swaps an entry's fields in place), and marks its bytes lent:
// whoever reads the snapshot reads them unlocked, so they never go back to
// wire.Pool.
func (s *Store) lend(k key) (entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.images[k]
	if !ok {
		return entry{}, false
	}
	e.lent = true
	return *e, true
}

// peerHas asks a peer whether slot k there already holds the bytes tag names.
// A "have" counts as the peer's ack. Any failure reads as "no" — pushing is
// always safe.
func (s *Store) peerHas(peer wire.NodeID, k key, tag uint64) bool {
	m := &wire.Msg{
		Type: wire.TControl, Kind: kHas,
		App: k.app, Src: k.rank, Seq: k.n,
		Payload: binary.BigEndian.AppendUint64(nil, tag),
	}
	reply, err := s.request(peer, m)
	if err != nil || reply.Kind != kOK {
		return false
	}
	s.mu.Lock()
	s.pushesSkipped++
	s.ackLocked(k, peer)
	s.mu.Unlock()
	return true
}

// ackLocked records that peer acknowledged holding a replica of k, unless a
// newer view has already dropped the peer.
func (s *Store) ackLocked(k key, peer wire.NodeID) {
	if !slices.Contains(s.members, peer) {
		return
	}
	acks := s.acked[k]
	if acks == nil {
		acks = make(map[wire.NodeID]bool)
		s.acked[k] = acks
	}
	acks[peer] = true
}

func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// broadcastIndex replicates index entries to every member except ourselves.
// Index traffic is advisory: failures are logged, not returned.
func (s *Store) broadcastIndex(members []wire.NodeID, keys []key) {
	if len(keys) == 0 {
		return
	}
	w := wire.NewWriter(4 + 16*len(keys))
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U32(uint32(k.app)).U32(uint32(k.rank)).U64(k.n)
	}
	s.broadcast(members, "index", wire.Msg{Type: wire.TControl, Kind: kIndex, Payload: w.Bytes()})
}

// broadcast sends one advisory single-frame request (index, commit, GC, drop)
// to every member except ourselves: a failure is logged, not returned — the
// next view change's re-replication pass repeats the index and the lines.
func (s *Store) broadcast(members []wire.NodeID, what string, m wire.Msg) {
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		req := m // request stamps its tag into the message it is handed
		if reply, err := s.request(peer, &req); err != nil || reply.Kind != kOK {
			s.logf("[rstore %d] %s broadcast to node %d failed: %v", s.cfg.Node, what, peer, err)
		}
	}
}

// Get returns the image of checkpoint n of (app, rank): the state its record
// encodes (materialized cache first, ckpt.Resolve otherwise). The returned
// image references store-internal memory; treat it as read-only.
func (s *Store) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	e, err := s.getSlot(app, rank, n)
	if err != nil {
		return nil, nil, err
	}
	if e.kind == slotRetained {
		return nil, nil, fmt.Errorf("%w: app %d rank %d #%d was collected", ckpt.ErrNoCheckpoint, app, rank, n)
	}
	k := key{app, rank, n}
	s.mu.Lock()
	r, ok := s.resolved[k]
	if ok {
		r.published = true
	}
	s.mu.Unlock()
	if ok {
		return r.raw, e.meta, nil
	}
	// Cold path. A record that carries its whole image was checked when it
	// was installed; any other goes through Resolve, which reads every record
	// it needs through GetEnvelope, from peers where this node lacks one.
	raw, whole := e.rec.Image()
	if !whole {
		if raw, err = ckpt.Resolve(s, app, rank, n); err != nil {
			return nil, nil, err
		}
	}
	s.mu.Lock()
	s.resolved[k] = &resolvedImage{raw: raw, published: true}
	s.mu.Unlock()
	return raw, e.meta, nil
}

// GetEnvelope returns the record stored in slot n.
func (s *Store) GetEnvelope(app wire.AppID, rank wire.Rank, n uint64) ([]byte, error) {
	e, err := s.getSlot(app, rank, n)
	return e.img, err
}

// getSlot returns a snapshot of slot n of (app, rank): from local RAM when
// present, else by fetching from a peer (in the key's holder order) and
// caching the result. A record whose blocks fail their crc32c is refused, and
// if that is all the peers have, the answer is ErrMissingBlock.
func (s *Store) getSlot(app wire.AppID, rank wire.Rank, n uint64) (entry, error) {
	k := key{app, rank, n}
	s.mu.Lock()
	if e, ok := s.images[k]; ok {
		e.lent = true
		snap := *e // under mu: a concurrent replica push swaps an entry's fields
		s.mu.Unlock()
		return snap, nil
	}
	// Every other member, in the key's holder order.
	candidates := slices.DeleteFunc(HolderOrder(app, rank, s.members), func(h wire.NodeID) bool { return h == s.cfg.Node })
	s.mu.Unlock()

	var corrupt error
	for _, peer := range candidates {
		img, kind, meta, tag, err := s.fetchSlot(peer, k)
		if err != nil {
			continue
		}
		rec, err := decodeSlot(k, kind, img)
		if err != nil {
			corrupt = fmt.Errorf("%w: slot #%d of app %d rank %d from node %d: %v", ckpt.ErrMissingBlock, n, app, rank, peer, err)
			continue
		}
		s.mu.Lock()
		s.peerFetches++
		e, ok := s.images[k]
		if !ok {
			e = s.setSlotLocked(k, img, kind, rec, meta, tag, false)
		}
		e.lent = true
		snap := *e
		s.mu.Unlock()
		return snap, nil
	}
	s.mu.Lock()
	s.peerFetchMisses++
	s.mu.Unlock()
	if corrupt != nil {
		return entry{}, corrupt
	}
	return entry{}, fmt.Errorf("%w: app %d rank %d #%d (no in-memory replica)",
		ckpt.ErrNoCheckpoint, app, rank, n)
}

// fetchSlot asks one peer for one slot. A hit comes back as two frames:
// kGetOK carrying the header, then kGetData carrying the bytes, which this
// store keeps as they arrived — the transport's pooled copy, which the
// caller lends at once and so never recycles.
func (s *Store) fetchSlot(peer wire.NodeID, k key) ([]byte, uint8, *ckpt.Meta, uint64, error) {
	m := &wire.Msg{Type: wire.TControl, Kind: kGet, App: k.app, Src: k.rank, Seq: k.n}
	for attempt := 0; ; attempt++ {
		replies, err := s.exchange(peer, []*wire.Msg{m}, func(first *wire.Msg) int {
			if first.Kind == kGetOK {
				return 1 // the kGetData frame
			}
			return 0
		})
		if err != nil {
			return nil, 0, nil, 0, err
		}
		if len(replies) == 2 && replies[1].Kind == kGetData {
			tag, kind, meta, err := decodeSlotHeader(replies[0].Payload)
			return replies[1].Payload, kind, meta, tag, err
		}
		// Only kGetMiss says the peer does not hold the slot; anything
		// else is half a reply pair (the other frame was lost or doubled),
		// and asking again is the answer to that.
		if replies[0].Kind == kGetMiss || attempt >= s.cfg.RequestRetries {
			return nil, 0, nil, 0, ckpt.ErrNoCheckpoint
		}
	}
}

// List returns the checkpoint indices known cluster-wide for (app, rank).
func (s *Store) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for n := range s.index[app][rank] {
		out = append(out, n)
	}
	slices.Sort(out)
	return out, nil
}

// Ranks returns the ranks with at least one checkpoint known cluster-wide.
func (s *Store) Ranks(app wire.AppID) ([]wire.Rank, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.Rank
	for r, ns := range s.index[app] {
		if len(ns) > 0 {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out, nil
}

// CommitLine records a committed recovery line and broadcasts it to every
// member, so restart can read it on whichever node coordinates recovery.
func (s *Store) CommitLine(app wire.AppID, line ckpt.RecoveryLine) error {
	cp := make(ckpt.RecoveryLine, len(line))
	for r, n := range line {
		cp[r] = n
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("rstore: store closed")
	}
	s.commits[app] = cp
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()
	s.broadcast(members, "commit", wire.Msg{Type: wire.TControl, Kind: kCommit, App: app, Payload: ckpt.EncodeLine(cp)})
	return nil
}

// CommittedLine returns the last committed line for app, asking peers when
// this node has none (e.g. it joined after the commit).
func (s *Store) CommittedLine(app wire.AppID) (ckpt.RecoveryLine, error) {
	s.mu.Lock()
	if line, ok := s.commits[app]; ok {
		s.mu.Unlock()
		return line, nil
	}
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kLineGet, App: app}
		reply, err := s.request(peer, &m)
		if err != nil || reply.Kind != kLineOK {
			continue
		}
		line, err := ckpt.DecodeLine(reply.Payload)
		if err != nil {
			continue
		}
		s.mu.Lock()
		s.commits[app] = line
		s.mu.Unlock()
		return line, nil
	}
	return nil, fmt.Errorf("%w: app %d has no committed line", ckpt.ErrNoCheckpoint, app)
}

// GC collects the checkpoints of (app, rank) older than keepFrom, locally and
// on every member: their index entries go, and so do their slots, but for the
// records a surviving record names.
func (s *Store) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	s.event(evstore.EvRank("gc", app, rank, evstore.F("keep-from", keepFrom)))
	s.mu.Lock()
	s.gcLocked(app, rank, keepFrom)
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()
	s.broadcast(members, "GC", wire.Msg{Type: wire.TControl, Kind: kGC, App: app, Src: rank, Seq: keepFrom})
	return nil
}

// gcLocked collects below keepFrom. A record whose blocks a surviving carry
// list names stays, as a collected slot, until the last record naming it
// goes, cut down to those blocks once that halves it, so a block nobody
// rewrites does not pin its whole record. Callers hold s.mu.
func (s *Store) gcLocked(app wire.AppID, rank wire.Rank, keepFrom uint64) {
	for n := range s.index[app][rank] {
		if n < keepFrom {
			delete(s.index[app][rank], n)
		}
	}
	collecting := false
	for k, e := range s.images {
		collecting = collecting || k.app == app && k.rank == rank && k.n < keepFrom && e.kind != slotRetained
	}
	if !collecting {
		return // what was kept below keepFrom is named as it was
	}
	carried := make(map[uint64][]uint32)
	for k, e := range s.images {
		if k.app != app || k.rank != rank || k.n < keepFrom || e.kind != slotRecord {
			continue
		}
		for i := range uint32((e.rec.RawLen + ckpt.DeltaBlockSize - 1) / ckpt.DeltaBlockSize) {
			if n, ok := e.rec.Carrier(i); ok && n < keepFrom {
				carried[n] = append(carried[n], i)
			}
		}
	}
	for k, e := range s.images {
		if k.app != app || k.rank != rank || k.n >= keepFrom {
			continue
		}
		keep := carried[k.n]
		if len(keep) == 0 {
			s.deleteImageLocked(k)
			continue
		}
		e.kind = slotRetained
		delete(s.resolved, k)
		slices.Sort(keep)
		if cut := e.rec.Keep(slices.Compact(keep)); cut != nil {
			if rec, err := ckpt.DecodeRecord(cut); err == nil {
				e.release()
				e.img, e.rec, e.owned, e.lent = cut, rec, true, false
			}
		}
	}
}

// DropApp removes every image, index entry and commit record of app, locally
// and on every member.
func (s *Store) DropApp(app wire.AppID) error {
	s.mu.Lock()
	s.dropAppLocked(app)
	members := append([]wire.NodeID(nil), s.members...)
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	s.broadcast(members, "drop", wire.Msg{Type: wire.TControl, Kind: kDrop, App: app})
	return nil
}

func (s *Store) dropAppLocked(app wire.AppID) {
	for k := range s.images {
		if k.app == app {
			s.deleteImageLocked(k)
		}
	}
	delete(s.index, app)
	delete(s.commits, app)
}

// Evict drops the local copy of one image (memory pressure hook). The
// replicated index still records its existence, so a later Get re-fetches it
// from a peer.
func (s *Store) Evict(app wire.AppID, rank wire.Rank, n uint64) {
	s.mu.Lock()
	s.deleteImageLocked(key{app, rank, n})
	s.mu.Unlock()
}

// Holds reports whether this node's RAM currently contains the image.
func (s *Store) Holds(app wire.AppID, rank wire.Rank, n uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.images[key{app, rank, n}]
	return ok
}

// ---------------------------------------------------------------------------
// Local bookkeeping (all *Locked: callers hold s.mu)
// ---------------------------------------------------------------------------

// setSlotLocked installs img, stored as kind and decoding to rec, in slot k
// under the tag of the put that produced it, owned as the caller says. The
// bytes it replaces are released, and any previously materialized image for
// the slot is stale.
func (s *Store) setSlotLocked(k key, img []byte, kind uint8, rec *ckpt.Record, meta *ckpt.Meta, tag uint64, owned bool) *entry {
	e, ok := s.images[k]
	if !ok {
		e = &entry{}
		s.images[k] = e
	} else if !sameBytes(e.img, img) {
		e.release()
		e.lent = false
	}
	e.img, e.kind, e.rec, e.meta, e.tag, e.owned = img, kind, rec, meta, tag, owned
	delete(s.resolved, k)
	return e
}

// deleteImageLocked removes slot k, releasing its bytes, and every piece of
// state hanging off it (replica acks, the materialized image).
func (s *Store) deleteImageLocked(k key) {
	if e, ok := s.images[k]; ok {
		e.release()
	}
	delete(s.images, k)
	delete(s.acked, k)
	delete(s.resolved, k)
}

// materializeLocked eagerly reconstructs the image behind the record in slot k
// — one resident image per rank bounds the cache, and restores overwhelmingly
// want the newest epoch. A record that carries its whole image is that image,
// cached as published: nothing copies it and nothing patches it. Any other
// record carries the blocks that changed since slot k-1, so on the image of
// that slot, resized, it patches exactly those; with no such image it is
// materialized only if it names no other slot. While no reader was handed the
// previous image the patches go onto it in place, so an epoch costs what
// changed, not the image. Failure is silent: Get's cold path still works.
func (s *Store) materializeLocked(k key) {
	e := s.images[k]
	if e == nil || e.kind != slotRecord {
		return
	}
	rec := e.rec
	img := s.resolved[key{k.app, k.rank, k.n - 1}]
	if whole, ok := rec.Image(); ok {
		img = &resolvedImage{raw: whole, published: true}
	} else {
		prev := img
		if prev == nil && len(rec.Names) > 0 {
			return // it needs what other records carry: Get's cold path assembles it
		}
		if prev == nil || prev.published || len(prev.raw) != rec.RawLen {
			// A published image is immutable (Get returned pointers to it).
			img = &resolvedImage{raw: make([]byte, rec.RawLen)}
			if prev != nil {
				copy(img.raw, prev.raw)
			}
		}
		rec.Apply(img.raw)
	}
	for rk := range s.resolved {
		if rk.app == k.app && rk.rank == k.rank && rk.n < k.n {
			delete(s.resolved, rk)
		}
	}
	s.resolved[k] = img
}

// ---------------------------------------------------------------------------
// Re-replication
// ---------------------------------------------------------------------------

// reReplicate restores the replication target after a view change: it pushes
// the full index and all commit lines to every member, then, for every held
// slot a restart can still need and whose first replica is here, asks each
// unacknowledged target "have?" and pushes the slot only on a "no". The pass
// aborts if a newer view arrives mid-way (a fresh pass covers it).
func (s *Store) reReplicate(gen uint64) {
	var pushed, skipped, failed, bytes int
	done := func(aborted bool) {
		s.event(evstore.Ev("rereplicate",
			evstore.F("gen", gen), evstore.F("pushed", pushed),
			evstore.F("skipped", skipped), evstore.F("bytes", bytes),
			evstore.F("failed", failed), evstore.F("aborted", aborted)))
	}
	s.mu.Lock()
	if s.closed || gen != s.viewGen {
		s.mu.Unlock()
		return
	}
	members := append([]wire.NodeID(nil), s.members...)
	var listed, held []key
	for app, ranks := range s.index {
		for rank, ns := range ranks {
			for n := range ns {
				listed = append(listed, key{app, rank, n})
			}
		}
	}
	for k := range s.images {
		held = append(held, k)
	}
	commits := make(map[wire.AppID]ckpt.RecoveryLine, len(s.commits))
	for app, line := range s.commits {
		commits[app] = line
	}
	s.mu.Unlock()

	s.broadcastIndex(members, listed)
	for app, line := range commits {
		s.broadcast(members, "commit", wire.Msg{Type: wire.TControl, Kind: kCommit, App: app, Payload: ckpt.EncodeLine(line)})
	}
	// Ascending, so that a record's base and carried slots go before it.
	slices.SortFunc(held, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.app, b.app), cmp.Compare(a.rank, b.rank), cmp.Compare(a.n, b.n))
	})
	for _, k := range held {
		s.mu.Lock()
		if s.closed || gen != s.viewGen {
			s.mu.Unlock()
			done(true)
			return
		}
		e, ok := s.images[k]
		var targets []wire.NodeID
		if ok {
			targets = s.owedLocked(k, e)
		}
		if len(targets) == 0 {
			s.mu.Unlock()
			continue
		}
		e.lent = true // the pushes read it unlocked
		snap := *e
		s.mu.Unlock()
		for _, h := range targets {
			if s.peerHas(h, k, snap.tag) {
				skipped++
				continue
			}
			sent, err := s.pushSlot(h, k, snap)
			bytes += sent
			if err != nil {
				failed++
				s.logf("[rstore %d] re-replicate #%d of app %d rank %d to node %d: %v",
					s.cfg.Node, k.n, k.app, k.rank, h, err)
			} else {
				pushed++
			}
		}
	}
	done(false)
}

// ---------------------------------------------------------------------------
// Peer RPC plumbing
// ---------------------------------------------------------------------------

// request sends one single-frame request and waits for its single reply.
func (s *Store) request(peer wire.NodeID, m *wire.Msg) (wire.Msg, error) {
	replies, err := s.exchange(peer, []*wire.Msg{m}, nil)
	if err != nil {
		return wire.Msg{}, err
	}
	return replies[0], nil
}

// exchange performs one logical request/reply exchange with a peer. All
// request frames share one tag; the reply may span multiple frames (more,
// when non-nil, reports how many extra frames follow the first). Failed
// exchanges are retried here: every peer operation is idempotent, and no
// request frame is pooled, so a send never moves a payload away.
func (s *Store) exchange(peer wire.NodeID, msgs []*wire.Msg, more func(*wire.Msg) int) ([]wire.Msg, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("rstore: store closed")
	}
	pc := s.peers[peer]
	if pc == nil {
		pc = &peerConn{}
		s.peers[peer] = pc
	}
	s.mu.Unlock()

	var lastErr error
	for i := 0; i <= s.cfg.RequestRetries; i++ {
		replies, err := s.roundTrip(pc, peer, msgs, more)
		if err == nil {
			return replies, nil
		}
		lastErr = err
		if s.isClosed() {
			break
		}
	}
	return nil, lastErr
}

// roundTrip performs one tagged multi-frame request/reply exchange with a
// timeout. Connections are dialed lazily, serialized per peer, and dropped
// on any error or timeout so the next attempt starts on a clean stream.
func (s *Store) roundTrip(pc *peerConn, peer wire.NodeID, msgs []*wire.Msg, more func(*wire.Msg) int) ([]wire.Msg, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		conn, err := s.cfg.Transport.Dial(s.cfg.PeerAddr(peer))
		if err != nil {
			return nil, err
		}
		pc.conn = conn
	}
	pc.tag++
	tag := pc.tag
	for _, m := range msgs {
		m.Tag = tag
		if err := pc.conn.Send(m); err != nil {
			pc.conn.Close()
			pc.conn = nil
			return nil, err
		}
	}

	// Receive in a helper goroutine so the wait can time out; mismatched
	// tags (a duplicated reply, or the late reply of a predecessor that
	// timed out after Send) are discarded.
	conn := pc.conn
	type res struct {
		ms  []wire.Msg
		err error
	}
	ch := make(chan res)
	done := make(chan struct{})
	defer close(done)
	go func() {
		var got []wire.Msg
		want := 1
		for {
			r, err := conn.Recv()
			if err != nil {
				for i := range got {
					got[i].Release()
				}
				select {
				case ch <- res{err: err}:
				case <-done:
				}
				return
			}
			if r.Tag != tag {
				r.Release()
				continue
			}
			got = append(got, r)
			if len(got) == 1 && more != nil {
				want += more(&got[0])
			}
			if len(got) < want {
				continue
			}
			select {
			case ch <- res{ms: got}:
			case <-done:
				for i := range got {
					got[i].Release()
				}
			}
			return
		}
	}()

	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	//starfish:allow lockcheck pc.mu deliberately serializes one request per peer; the wait is bounded by RequestTimeout
	select {
	case r := <-ch:
		if r.err != nil {
			pc.conn.Close()
			pc.conn = nil
			return nil, r.err
		}
		return r.ms, nil
	case <-timer.C:
		// Closing the connection unblocks the receiver goroutine and
		// guarantees a late reply can never be mispaired.
		pc.conn.Close()
		pc.conn = nil
		return nil, fmt.Errorf("rstore: request to node %d timed out after %v",
			peer, s.cfg.RequestTimeout)
	}
}

// serve accepts peer connections for the life of the store.
func (s *Store) serve() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		//starfish:allow goleak connection loop returns when the conn is closed (by the peer or by Close dropping all conns)
		go s.serveConn(c)
	}
}

// serveConn handles one peer connection: strict request/reply, one exchange
// in flight. kPut requests arrive as two frames (metadata, then the slot in
// its own frame); replies may likewise span multiple frames, all echoing the
// request's tag.
func (s *Store) serveConn(c vni.Conn) {
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		var replies []*wire.Msg
		if m.Kind == kPut {
			data, err := c.Recv()
			if err != nil {
				return
			}
			if data.Kind != kPutData || data.Tag != m.Tag {
				data.Release()
				replies = []*wire.Msg{{Type: wire.TControl, Kind: kGetMiss}}
			} else {
				replies = s.handlePut(&m, &data)
			}
		} else {
			replies = s.handle(&m)
		}
		for _, r := range replies {
			r.Tag = m.Tag // pair the reply with its request
			if err := c.Send(r); err != nil {
				return
			}
		}
		if m.Kind == kPut && replies[0].Kind == kOK && len(replies[0].Payload) == 0 {
			// The pusher is acked as soon as the slot is in: the image
			// behind it is patched while the pusher moves on.
			s.mu.Lock()
			s.materializeLocked(key{m.App, m.Src, m.Seq})
			s.mu.Unlock()
		}
	}
}

// handlePut services a two-frame replica push: tag, kind and metadata in the
// kPut frame, the slot in the kPutData frame, kept as it arrived (see
// fetchSlot). The pushed bytes replace whatever the slot held, tag included —
// but a record only if its blocks pass their crc32c and every slot it names is
// here: otherwise nothing is installed and the ack lists the missing slots,
// the closing move of the push. serveConn materializes an installed record
// once the ack is out.
func (s *Store) handlePut(m, data *wire.Msg) []*wire.Msg {
	k := key{m.App, m.Src, m.Seq}
	tag, kind, meta, err := decodeSlotHeader(m.Payload)
	var rec *ckpt.Record
	if err == nil {
		rec, err = decodeSlot(k, kind, data.Payload)
	}
	if err != nil {
		data.Release()
		return []*wire.Msg{{Type: wire.TControl, Kind: kGetMiss}}
	}
	var missing []byte
	s.mu.Lock()
	if kind == slotRecord {
		for _, n := range rec.Names {
			if _, ok := s.images[key{k.app, k.rank, n}]; !ok {
				missing = binary.BigEndian.AppendUint64(missing, n)
			}
		}
	}
	if len(missing) == 0 {
		s.setSlotLocked(k, data.Payload, kind, rec, meta, tag, data.Pooled)
		if kind != slotRetained {
			s.indexAddLocked(k.app, k.rank, k.n)
		}
	}
	s.mu.Unlock()
	if len(missing) > 0 {
		data.Release()
	}
	return []*wire.Msg{{Type: wire.TControl, Kind: kOK, Payload: missing}}
}

// handle services one single-frame peer request, returning the reply frames.
func (s *Store) handle(m *wire.Msg) []*wire.Msg {
	one := func(r *wire.Msg) []*wire.Msg { return []*wire.Msg{r} }
	switch m.Kind {
	case kGet:
		snap, ok := s.lend(key{m.App, m.Src, m.Seq})
		if !ok {
			return one(&wire.Msg{Type: wire.TControl, Kind: kGetMiss})
		}
		// The stored slice is the payload: the transport makes the one copy.
		return []*wire.Msg{
			{Type: wire.TControl, Kind: kGetOK, Payload: encodeSlotHeader(snap.tag, snap.kind, snap.meta)},
			{Type: wire.TControl, Kind: kGetData, Payload: snap.img},
		}

	case kHas:
		s.mu.Lock()
		e, ok := s.images[key{m.App, m.Src, m.Seq}]
		ok = ok && len(m.Payload) == 8 && e.tag == binary.BigEndian.Uint64(m.Payload)
		s.mu.Unlock()
		if !ok {
			return one(&wire.Msg{Type: wire.TControl, Kind: kGetMiss})
		}
		return one(&wire.Msg{Type: wire.TControl, Kind: kOK})

	case kIndex:
		r := wire.NewReader(m.Payload)
		count := r.U32()
		s.mu.Lock()
		for i := uint32(0); i < count && r.Err() == nil; i++ {
			app := wire.AppID(r.U32())
			rank := wire.Rank(r.U32())
			n := r.U64()
			if r.Err() == nil {
				s.indexAddLocked(app, rank, n)
			}
		}
		s.mu.Unlock()
		return one(&wire.Msg{Type: wire.TControl, Kind: kOK})

	case kCommit:
		line, err := ckpt.DecodeLine(m.Payload)
		if err == nil {
			s.mu.Lock()
			s.commits[m.App] = line
			s.mu.Unlock()
		}
		return one(&wire.Msg{Type: wire.TControl, Kind: kOK})

	case kLineGet:
		s.mu.Lock()
		line, ok := s.commits[m.App]
		s.mu.Unlock()
		if !ok {
			return one(&wire.Msg{Type: wire.TControl, Kind: kLineMiss})
		}
		return one(&wire.Msg{Type: wire.TControl, Kind: kLineOK, Payload: ckpt.EncodeLine(line)})

	case kGC:
		s.mu.Lock()
		s.gcLocked(m.App, m.Src, m.Seq)
		s.mu.Unlock()
		return one(&wire.Msg{Type: wire.TControl, Kind: kOK})

	case kDrop:
		s.mu.Lock()
		s.dropAppLocked(m.App)
		s.mu.Unlock()
		return one(&wire.Msg{Type: wire.TControl, Kind: kOK})

	default:
		return one(&wire.Msg{Type: wire.TControl, Kind: kGetMiss})
	}
}
