// Package rstore implements a replicated in-memory checkpoint store.
//
// Each Starfish daemon embeds one rstore.Store: an in-RAM shard of checkpoint
// images plus a small replication protocol that pushes every image to k peer
// daemons over the ordinary wire/vni transport. Recovery after a node failure
// then restores a rank from a surviving peer's RAM instead of a shared file
// system — the dominant cost of restart in the paper's disk-based design.
//
// Design:
//
//   - Placement is deterministic: the holders of (app, rank) are k consecutive
//     members of the current sorted membership starting at an FNV-1a hash of
//     the pair. Every node computes the same holder set from the same view,
//     so no directory service is needed. The writer always keeps a local copy
//     regardless of placement (it is about to be the one reading it back).
//   - A lightweight index of which checkpoints exist (app, rank, n) is
//     replicated to every member, so List/Ranks/GatherLine work on any node,
//     including nodes that never hosted the rank. Committed recovery lines
//     are likewise broadcast.
//   - On a view change the daemon calls UpdateView; a background pass then
//     re-replicates: every locally held image whose holder set under the new
//     view includes peers that have not acknowledged a copy is pushed again.
//     The pass is idempotent (puts of the same (app, rank, n) overwrite), so
//     racing passes and duplicate pushes are harmless.
//   - Replication reuses the pooled-buffer ownership discipline of the fast
//     data path: an outgoing image is staged once into a wire.BufPool buffer
//     and then moves to the peer with no further copies. Get returns the
//     store's internal buffer (callers treat images as read-only), so a
//     restore from local or peer RAM never copies the image at all.
//
// The store speaks TControl messages on its own listener, daemon-to-daemon —
// the one route Table 1 allows for system traffic.
package rstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Protocol message kinds (wire.Msg.Kind on TControl messages).
//
// Whole images travel in their own frame (kPutData/kGetData, tag-paired with
// the request) rather than being concatenated with the metadata: the image
// frame is staged into an exactly-sized pooled buffer, so an 8 MiB image
// costs one 8 MiB-class checkout instead of overflowing into the next
// power-of-two class with the metadata prefix glued on.
const (
	kPut       uint16 = 0x60 // header: App, Src=rank, Seq=n; payload: meta; followed by kPutData
	kGet       uint16 = 0x61 // header: App, Src=rank, Seq=n
	kGetOK     uint16 = 0x62 // payload: meta; followed by kGetData
	kGetMiss   uint16 = 0x63
	kIndex     uint16 = 0x64 // payload: count, then (app, rank, n) entries
	kCommit    uint16 = 0x65 // header: App; payload: encoded recovery line
	kLineGet   uint16 = 0x66 // header: App
	kLineOK    uint16 = 0x67 // payload: encoded recovery line
	kLineMiss  uint16 = 0x68
	kGC        uint16 = 0x69 // header: App, Src=rank, Seq=keepFrom
	kDrop      uint16 = 0x6A // header: App
	kOK        uint16 = 0x6B // generic ack
	kPutData   uint16 = 0x6C // second frame of kPut: the image bytes
	kGetData   uint16 = 0x6D // second frame of kGetOK: the image bytes
	kPutRec    uint16 = 0x6E // header: App, Src=rank, Seq=n; payload: meta|env; reply kRecOK
	kRecOK     uint16 = 0x6F // payload: u32 count + still-missing block ids
	kBlockHas  uint16 = 0x70 // payload: u32 count + block ids; reply kHasOK
	kHasOK     uint16 = 0x71 // payload: one byte per queried id (1 = held)
	kBlockPut  uint16 = 0x72 // payload: u32 count + (id, u32 len, data) entries
	kBlockGet  uint16 = 0x73 // payload: one block id
	kBlockOK   uint16 = 0x74 // payload: the block bytes
	kBlockMiss uint16 = 0x75
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
	// origin marks images this node stored on behalf of a local process (as
	// opposed to replicas pushed by a peer); origin entries drive the
	// under-replication counter.
	origin bool
}

// blockEntry is one content-addressed block of the chunked checkpoint
// pipeline (see rstore_chunked.go).
type blockEntry struct {
	data []byte
	// refs counts references from locally held record envelopes (one per
	// occurrence); a block at zero references is garbage unless pinned.
	refs int
	// pinned marks a block pushed ahead of its record (kBlockPut): it must
	// survive until the kPutRec that references it lands, even across a
	// concurrent GC broadcast.
	pinned bool
}

// Stats is a snapshot of one store's replica health and size counters.
type Stats struct {
	Node     wire.NodeID
	Members  int
	Replicas int
	// Images and Bytes count locally resident checkpoint images.
	Images int
	Bytes  int64
	// IndexEntries counts cluster-wide known checkpoints (the replicated
	// index), Commits the apps with a known committed line.
	IndexEntries int
	Commits      int
	// UnderReplicated counts origin images with fewer acknowledged live
	// copies than the replication target.
	UnderReplicated int
	// Pushes/PushFailures count replica push attempts; PeerFetches counts
	// Get requests served from a peer's RAM, PeerFetchMisses failed ones.
	Pushes          uint64
	PushFailures    uint64
	PeerFetches     uint64
	PeerFetchMisses uint64
	// Blocks and BlockBytes count locally resident content-addressed
	// blocks of the chunked checkpoint pipeline.
	Blocks     int
	BlockBytes int64
	// BytesReplicated is the total payload bytes this node actually pushed
	// to peers (images, record envelopes, and block data) — the savings
	// metric of delta replication.
	BytesReplicated uint64
}

// String formats the snapshot as a single management-protocol-friendly line.
func (st Stats) String() string {
	return fmt.Sprintf(
		"node %d members %d replicas %d images %d bytes %d index %d commits %d under-replicated %d pushes %d push-failures %d peer-fetches %d peer-fetch-misses %d blocks %d block-bytes %d replicated-bytes %d",
		st.Node, st.Members, st.Replicas, st.Images, st.Bytes, st.IndexEntries,
		st.Commits, st.UnderReplicated, st.Pushes, st.PushFailures,
		st.PeerFetches, st.PeerFetchMisses, st.Blocks, st.BlockBytes,
		st.BytesReplicated)
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
	// blocks is the content-addressed block shard; resolved caches the
	// raw image behind a record chain, materialized eagerly as records
	// arrive so a restore from a chain is pointer-speed (rstore_chunked.go).
	blocks   map[ckpt.BlockID]*blockEntry
	resolved map[key]*resolvedImage

	pushes, pushFailures, peerFetches, peerFetchMisses, repBytes uint64
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
		blocks:   make(map[ckpt.BlockID]*blockEntry),
		resolved: make(map[key]*resolvedImage),
	}
	//starfish:allow goleak accept loop returns when Close closes s.ln
	go s.serve()
	return s, nil
}

// Close stops serving peers and drops all connections. Held images remain
// readable locally (the daemon may still be draining), but no further
// replication happens.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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

// Addr returns the store's bound listen address.
func (s *Store) Addr() string { return s.ln.Addr() }

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

// hashKey is FNV-1a over (app, rank); it seeds replica placement.
func hashKey(app wire.AppID, rank wire.Rank) uint32 {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:], uint32(app))
	binary.BigEndian.PutUint32(b[4:], uint32(rank))
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// holdersLocked returns the members that should hold (app, rank) under the
// current view: min(Replicas, len(members)) consecutive members starting at
// the placement hash. Callers hold s.mu.
func (s *Store) holdersLocked(app wire.AppID, rank wire.Rank) []wire.NodeID {
	n := len(s.members)
	if n == 0 {
		return nil
	}
	k := s.cfg.Replicas
	if k > n {
		k = n
	}
	start := int(hashKey(app, rank) % uint32(n))
	out := make([]wire.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, s.members[(start+i)%n])
	}
	return out
}

// UpdateView installs a new membership (sorted copy taken) and starts a
// background re-replication pass restoring the replication target for every
// image this node holds. Acks from departed members are pruned so the
// under-replication counter reflects live copies only.
func (s *Store) UpdateView(members []wire.NodeID) {
	ms := append([]wire.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.members = ms
	s.viewGen++
	gen := s.viewGen
	live := make(map[wire.NodeID]bool, len(ms))
	for _, m := range ms {
		live[m] = true
	}
	for k, acks := range s.acked {
		for n := range acks {
			if !live[n] {
				delete(acks, n)
			}
		}
		if len(acks) == 0 {
			delete(s.acked, k)
		}
	}
	for n, pc := range s.peers {
		if !live[n] {
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

// Members returns the current sorted membership (copy).
func (s *Store) Members() []wire.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.NodeID(nil), s.members...)
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
		PeerFetches:     s.peerFetches,
		PeerFetchMisses: s.peerFetchMisses,
		Blocks:          len(s.blocks),
		BytesReplicated: s.repBytes,
	}
	for _, e := range s.images {
		st.Bytes += int64(len(e.img))
	}
	for _, b := range s.blocks {
		st.BlockBytes += int64(len(b.data))
	}
	for _, ranks := range s.index {
		for _, ns := range ranks {
			st.IndexEntries += len(ns)
		}
	}
	want := s.cfg.Replicas
	if want > len(s.members) {
		want = len(s.members)
	}
	for k, e := range s.images {
		if !e.origin {
			continue
		}
		have := 1 // our own copy
		for n := range s.acked[k] {
			if n != s.cfg.Node {
				have++
			}
		}
		if have < want {
			st.UnderReplicated++
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

// Put stores checkpoint n of (app, rank) in local RAM, pushes replicas to the
// holder peers, and replicates the index entry to every member. Replication
// failures do not fail the Put — the local copy exists and the
// under-replication counter (and the next view change's re-replication pass)
// pick up the slack.
func (s *Store) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *ckpt.Meta) error {
	if meta == nil {
		meta = &ckpt.Meta{Rank: rank, Index: n}
	}
	k := key{app, rank, n}
	// Keep our own reference to the stored copy: once published in s.images,
	// a concurrent replica push (handle kPut) may swap the entry's img.
	stored := append([]byte(nil), img...)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("rstore: store closed")
	}
	s.setImageLocked(k, stored, meta, true)
	s.indexAddLocked(app, rank, n)
	holders := s.holdersLocked(app, rank)
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()

	mb := meta.Encode()
	for _, h := range holders {
		if h == s.cfg.Node {
			continue
		}
		if err := s.pushImage(h, k, mb, stored); err != nil {
			s.logf("[rstore %d] push #%d of app %d rank %d to node %d: %v",
				s.cfg.Node, n, app, rank, h, err)
			s.event(evstore.EvRank("push-failure", app, rank,
				evstore.F("n", n), evstore.F("peer", h)))
		}
	}
	s.broadcastIndex(members, []key{k})
	return nil
}

// pushImage sends one image to a peer and records the ack. The metadata
// rides in the request frame; the image is staged into an exactly-sized
// pooled buffer that moves to the peer copy-free in a second frame. A
// successful Send gives the buffer away, so each retry after a timeout or
// dropped reply restages a fresh one (puts are idempotent overwrites).
func (s *Store) pushImage(peer wire.NodeID, k key, metaBytes, img []byte) error {
	s.mu.Lock()
	s.pushes++
	s.mu.Unlock()
	var err error
	for attempt := 0; attempt <= s.cfg.RequestRetries; attempt++ {
		hdr := &wire.Msg{
			Type: wire.TControl, Kind: kPut,
			App: k.app, Src: k.rank, Seq: k.n,
			Payload: metaBytes,
		}
		buf := wire.GetBuf(len(img))
		copy(buf, img)
		data := &wire.Msg{
			Type: wire.TControl, Kind: kPutData,
			App: k.app, Src: k.rank, Seq: k.n,
			Payload: buf, Pooled: true,
		}
		var replies []wire.Msg
		replies, err = s.exchange(peer, []*wire.Msg{hdr, data}, nil)
		if err == nil && replies[0].Kind != kOK {
			err = fmt.Errorf("rstore: unexpected reply kind %#x", replies[0].Kind)
		}
		if err == nil {
			s.mu.Lock()
			s.repBytes += uint64(len(metaBytes) + len(img))
			s.ackLocked(k, peer)
			s.mu.Unlock()
			return nil
		}
		if s.isClosed() {
			break
		}
	}
	s.mu.Lock()
	s.pushFailures++
	s.mu.Unlock()
	return err
}

// ackLocked records that peer acknowledged holding a replica of k.
func (s *Store) ackLocked(k key, peer wire.NodeID) {
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
	payload := w.Bytes()
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kIndex, Payload: payload}
		if reply, err := s.request(peer, &m); err != nil || reply.Kind != kOK {
			s.logf("[rstore %d] index broadcast to node %d failed: %v",
				s.cfg.Node, peer, err)
		}
	}
}

// Get loads checkpoint n of (app, rank) and always returns a raw image: a
// slot holding a record envelope of the incremental pipeline is resolved to
// the state it encodes (materialized cache first, chain walk otherwise). The
// returned image references store-internal memory; treat it as read-only.
func (s *Store) Get(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	img, meta, err := s.getImage(app, rank, n)
	if err != nil {
		return nil, nil, err
	}
	if !ckpt.IsRecord(img) {
		return img, meta, nil
	}
	raw, err := s.resolveEnv(app, rank, n, img)
	if err != nil {
		return nil, nil, err
	}
	return raw, meta, nil
}

// getImage loads the slot contents of checkpoint n of (app, rank) verbatim
// (a raw image or a record envelope): from local RAM when present, else by
// fetching from a peer (holders first, then everyone) and caching the result.
func (s *Store) getImage(app wire.AppID, rank wire.Rank, n uint64) ([]byte, *ckpt.Meta, error) {
	k := key{app, rank, n}
	s.mu.Lock()
	if e, ok := s.images[k]; ok {
		// Snapshot under mu: a concurrent replica push (handle kPut)
		// swaps an origin entry's img/meta fields in place.
		img, meta := e.img, e.meta
		s.mu.Unlock()
		return img, meta, nil
	}
	candidates := s.fetchOrderLocked(app, rank)
	s.mu.Unlock()

	for _, peer := range candidates {
		img, meta, err := s.fetchImage(peer, k)
		if err != nil {
			continue
		}
		s.mu.Lock()
		s.peerFetches++
		e, ok := s.images[k]
		if !ok {
			s.setImageLocked(k, img, meta, false)
			s.indexAddLocked(app, rank, n)
			e = s.images[k]
		}
		img, meta = e.img, e.meta // snapshot under mu (see above)
		s.mu.Unlock()
		return img, meta, nil
	}
	s.mu.Lock()
	s.peerFetchMisses++
	s.mu.Unlock()
	return nil, nil, fmt.Errorf("%w: app %d rank %d #%d (no in-memory replica)",
		ckpt.ErrNoCheckpoint, app, rank, n)
}

// fetchOrderLocked lists the peers to ask for (app, rank), holders first,
// then the remaining members. Callers hold s.mu.
func (s *Store) fetchOrderLocked(app wire.AppID, rank wire.Rank) []wire.NodeID {
	holders := s.holdersLocked(app, rank)
	inHolders := make(map[wire.NodeID]bool, len(holders))
	out := make([]wire.NodeID, 0, len(s.members))
	for _, h := range holders {
		inHolders[h] = true
		if h != s.cfg.Node {
			out = append(out, h)
		}
	}
	for _, m := range s.members {
		if m != s.cfg.Node && !inHolders[m] {
			out = append(out, m)
		}
	}
	return out
}

// fetchImage asks one peer for one image. A hit comes back as two frames:
// kGetOK carrying the metadata, then kGetData carrying the image in its own
// exactly-sized pooled buffer, which this store retains by aliasing (pooled
// buffers are simply never recycled — dropping without Release is safe).
func (s *Store) fetchImage(peer wire.NodeID, k key) ([]byte, *ckpt.Meta, error) {
	m := &wire.Msg{Type: wire.TControl, Kind: kGet, App: k.app, Src: k.rank, Seq: k.n}
	var lastErr error
	for attempt := 0; attempt <= s.cfg.RequestRetries; attempt++ {
		replies, err := s.exchange(peer, []*wire.Msg{m}, func(first *wire.Msg) int {
			if first.Kind == kGetOK {
				return 1 // the kGetData frame
			}
			return 0
		})
		if err != nil {
			lastErr = err
			if s.isClosed() {
				break
			}
			continue
		}
		if replies[0].Kind != kGetOK || len(replies) != 2 || replies[1].Kind != kGetData {
			return nil, nil, ckpt.ErrNoCheckpoint
		}
		meta, err := ckpt.DecodeMeta(replies[0].Payload)
		if err != nil {
			return nil, nil, err
		}
		return replies[1].Payload, meta, nil
	}
	return nil, nil, lastErr
}

// decodeMetaEnv splits a kPutRec payload into metadata and record envelope.
// The envelope aliases the payload buffer, which the store retains.
func decodeMetaEnv(p []byte) ([]byte, *ckpt.Meta, error) {
	if len(p) < 4 {
		return nil, nil, ckpt.ErrBadImage
	}
	ml := binary.BigEndian.Uint32(p)
	if uint64(4+ml) > uint64(len(p)) {
		return nil, nil, ckpt.ErrBadImage
	}
	meta, err := ckpt.DecodeMeta(p[4 : 4+ml])
	if err != nil {
		return nil, nil, err
	}
	return p[4+ml:], meta, nil
}

// List returns the checkpoint indices known cluster-wide for (app, rank).
func (s *Store) List(app wire.AppID, rank wire.Rank) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.index[app][rank]
	if len(ns) == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, len(ns))
	for n := range ns {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Ranks returns the ranks with at least one checkpoint known cluster-wide.
func (s *Store) Ranks(app wire.AppID) ([]wire.Rank, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ranks := s.index[app]
	if len(ranks) == 0 {
		return nil, nil
	}
	out := make([]wire.Rank, 0, len(ranks))
	for r, ns := range ranks {
		if len(ns) > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	payload := ckpt.EncodeLine(cp)
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kCommit, App: app, Payload: payload}
		if reply, err := s.request(peer, &m); err != nil || reply.Kind != kOK {
			s.logf("[rstore %d] commit broadcast to node %d failed: %v",
				s.cfg.Node, peer, err)
		}
	}
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

// GC drops local images of (app, rank) older than keepFrom, updates the
// index, and broadcasts the collection to every member.
func (s *Store) GC(app wire.AppID, rank wire.Rank, keepFrom uint64) error {
	s.event(evstore.EvRank("gc", app, rank, evstore.F("keep-from", keepFrom)))
	s.mu.Lock()
	s.gcLocked(app, rank, keepFrom)
	members := append([]wire.NodeID(nil), s.members...)
	s.mu.Unlock()
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kGC, App: app, Src: rank, Seq: keepFrom}
		if reply, err := s.request(peer, &m); err != nil || reply.Kind != kOK {
			s.logf("[rstore %d] GC broadcast to node %d failed: %v",
				s.cfg.Node, peer, err)
		}
	}
	return nil
}

func (s *Store) gcLocked(app wire.AppID, rank wire.Rank, keepFrom uint64) {
	for k := range s.images {
		if k.app == app && k.rank == rank && k.n < keepFrom {
			s.deleteImageLocked(k)
		}
	}
	for n := range s.index[app][rank] {
		if n < keepFrom {
			delete(s.index[app][rank], n)
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
	for _, peer := range members {
		if peer == s.cfg.Node {
			continue
		}
		m := wire.Msg{Type: wire.TControl, Kind: kDrop, App: app}
		if reply, err := s.request(peer, &m); err != nil || reply.Kind != kOK {
			s.logf("[rstore %d] drop broadcast to node %d failed: %v",
				s.cfg.Node, peer, err)
		}
	}
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
// Re-replication
// ---------------------------------------------------------------------------

// reReplicate restores the replication target after a view change: it pushes
// the full index and all commit lines to every member, then every locally
// held image to holder peers that have not acknowledged a copy. The pass
// aborts if a newer view arrives mid-way (a fresh pass covers it).
func (s *Store) reReplicate(gen uint64) {
	var pushed, failed int
	done := func(aborted bool) {
		s.event(evstore.Ev("rereplicate",
			evstore.F("gen", gen), evstore.F("pushed", pushed),
			evstore.F("failed", failed), evstore.F("aborted", aborted)))
	}
	s.mu.Lock()
	if s.closed || gen != s.viewGen {
		s.mu.Unlock()
		return
	}
	members := append([]wire.NodeID(nil), s.members...)
	allKeys := make([]key, 0, len(s.images))
	for k := range s.images {
		allKeys = append(allKeys, k)
	}
	for app, ranks := range s.index {
		for rank, ns := range ranks {
			for n := range ns {
				k := key{app, rank, n}
				if _, held := s.images[k]; !held {
					allKeys = append(allKeys, k)
				}
			}
		}
	}
	commits := make(map[wire.AppID]ckpt.RecoveryLine, len(s.commits))
	for app, line := range s.commits {
		commits[app] = line
	}
	s.mu.Unlock()

	sort.Slice(allKeys, func(i, j int) bool {
		a, b := allKeys[i], allKeys[j]
		if a.app != b.app {
			return a.app < b.app
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.n < b.n
	})
	s.broadcastIndex(members, allKeys)
	for app, line := range commits {
		payload := ckpt.EncodeLine(line)
		for _, peer := range members {
			if peer == s.cfg.Node {
				continue
			}
			m := wire.Msg{Type: wire.TControl, Kind: kCommit, App: app, Payload: payload}
			if reply, err := s.request(peer, &m); err != nil || reply.Kind != kOK {
				s.logf("[rstore %d] commit re-broadcast to node %d failed: %v",
					s.cfg.Node, peer, err)
			}
		}
	}

	for _, k := range allKeys {
		s.mu.Lock()
		if s.closed || gen != s.viewGen {
			s.mu.Unlock()
			done(true)
			return
		}
		e, held := s.images[k]
		if !held {
			s.mu.Unlock()
			continue
		}
		holders := s.holdersLocked(k.app, k.rank)
		inHolders := false
		for _, h := range holders {
			if h == s.cfg.Node {
				inHolders = true
			}
		}
		var targets []wire.NodeID
		for _, h := range holders {
			if h != s.cfg.Node && !s.acked[k][h] {
				targets = append(targets, h)
			}
		}
		// Only holders and origins re-push: a node that merely cached a
		// fetched image must not take over placement.
		if !e.origin && !inHolders {
			targets = nil
		}
		var mb []byte
		if len(targets) > 0 {
			mb = e.meta.Encode()
		}
		img := e.img
		s.mu.Unlock()
		for _, h := range targets {
			var err error
			if ckpt.IsRecord(img) {
				err = s.pushRecord(h, k, mb, img)
			} else {
				err = s.pushImage(h, k, mb, img)
			}
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
// when non-nil, reports how many extra frames follow the first). Unpooled
// exchanges are retried here (every peer operation is idempotent); an
// exchange carrying a pooled frame gets exactly one attempt — a successful
// Send moves the payload away, so those callers restage and retry
// themselves (see pushImage).
func (s *Store) exchange(peer wire.NodeID, msgs []*wire.Msg, more func(*wire.Msg) int) ([]wire.Msg, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		releaseUnsent(msgs)
		return nil, fmt.Errorf("rstore: store closed")
	}
	pc := s.peers[peer]
	if pc == nil {
		pc = &peerConn{}
		s.peers[peer] = pc
	}
	s.mu.Unlock()

	attempts := 1
	pooled := false
	for _, m := range msgs {
		pooled = pooled || m.Pooled
	}
	if !pooled {
		attempts += s.cfg.RequestRetries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
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
// Pooled payloads of frames that never moved are released before returning
// an error, so callers uniformly own nothing afterwards.
func (s *Store) roundTrip(pc *peerConn, peer wire.NodeID, msgs []*wire.Msg, more func(*wire.Msg) int) ([]wire.Msg, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		conn, err := s.cfg.Transport.Dial(s.cfg.PeerAddr(peer))
		if err != nil {
			releaseUnsent(msgs)
			return nil, err
		}
		pc.conn = conn
	}
	pc.tag++
	tag := pc.tag
	for i, m := range msgs {
		m.Tag = tag
		if err := pc.conn.Send(m); err != nil {
			pc.conn.Close()
			pc.conn = nil
			releaseUnsent(msgs[i:])
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

// releaseUnsent returns the pooled payloads of frames that never moved to
// the transport.
func releaseUnsent(msgs []*wire.Msg) {
	for _, m := range msgs {
		if m.Pooled && m.Payload != nil {
			m.Release()
		}
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
// in flight. kPut requests arrive as two frames (metadata, then the image in
// its own pooled frame); replies may likewise span multiple frames, all
// echoing the request's tag.
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
		for i, r := range replies {
			r.Tag = m.Tag // pair the reply with its request
			if err := c.Send(r); err != nil {
				releaseUnsent(replies[i:])
				return
			}
		}
	}
}

// handlePut services a two-frame replica push: metadata in the kPut frame,
// the image in the kPutData frame, retained by aliasing the pooled receive
// buffer (it is never recycled, which is safe — the pool just misses a reuse).
func (s *Store) handlePut(m, data *wire.Msg) []*wire.Msg {
	meta, err := ckpt.DecodeMeta(m.Payload)
	if err != nil {
		data.Release()
		return []*wire.Msg{{Type: wire.TControl, Kind: kGetMiss}}
	}
	k := key{m.App, m.Src, m.Seq}
	s.mu.Lock()
	s.setImageLocked(k, data.Payload, meta, false)
	s.indexAddLocked(m.App, m.Src, m.Seq)
	s.materializeLocked(k)
	s.mu.Unlock()
	return []*wire.Msg{{Type: wire.TControl, Kind: kOK}}
}

// handle services one single-frame peer request, returning the reply frames.
func (s *Store) handle(m *wire.Msg) []*wire.Msg {
	one := func(r *wire.Msg) []*wire.Msg { return []*wire.Msg{r} }
	switch m.Kind {
	case kGet:
		k := key{m.App, m.Src, m.Seq}
		s.mu.Lock()
		e, ok := s.images[k]
		var img []byte
		var meta *ckpt.Meta
		if ok {
			img, meta = e.img, e.meta // snapshot under mu: kPut swaps origin entries in place
		}
		s.mu.Unlock()
		if !ok {
			return one(&wire.Msg{Type: wire.TControl, Kind: kGetMiss})
		}
		buf := wire.GetBuf(len(img))
		copy(buf, img)
		return []*wire.Msg{
			{Type: wire.TControl, Kind: kGetOK, Payload: meta.Encode()},
			{Type: wire.TControl, Kind: kGetData, Payload: buf, Pooled: true},
		}

	case kPutRec:
		return one(s.handlePutRec(m))

	case kBlockHas:
		return one(s.handleBlockHas(m))

	case kBlockPut:
		return one(s.handleBlockPut(m))

	case kBlockGet:
		return one(s.handleBlockGet(m))

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
