package proc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// crModule is the checkpoint/restart module of one application process. It
// drives the application-side of all three C/R protocols; which one runs
// is fixed by the application's spec, and because the module only speaks
// the generic C/R message vocabulary (ckpt.K*), different applications on
// the same cluster can run different protocols side by side — one of the
// paper's architectural goals.
//
// Every round's work runs on the rank's own loop, at a safe point: the
// module's intake callbacks (onMarker, onArrival, onReceive) only record what
// arrived and raise the loop's attention word. mu guards what onMarker
// shares with the loop; the OnReceive callbacks run under the communicator's
// lock, so they take no lock but receiptsMu.
type crModule struct {
	p *Process

	mu sync.Mutex

	// nextIndex is the index the next coordinated round will use;
	// lastIndex is the last locally completed checkpoint.
	nextIndex uint64
	lastIndex uint64

	// snapIndex is the checkpoint the application's latest Snapshot was
	// taken for (0: none by this process), what its next dirty hint is
	// relative to; snaps counts them, the serial of imageBuf. Main loop only.
	snapIndex, snaps uint64

	// A write-tracking application's diff state (DESIGN, "Capture data
	// flow"): base, the newest stored image, is what the next epoch is
	// diffed against, and where its record's carry list; spare, the image
	// before it, is the buffer the next image is built in. Both are ours:
	// the store gets records, never these. The capture worker swaps them
	// once it has stored an epoch; the loop reads them only after waiting
	// for it, and starts the next worker after that.
	base, spare imageBuf
	where       []uint64

	// worker is the epoch handed to the capture worker last (nil: none yet).
	// Loop only: every hand-off is made there.
	worker *inflight

	// Independent-protocol state: the sender intervals of the messages
	// counted since the last checkpoint's cut (onReceive).
	receiptsMu sync.Mutex
	receipts   []ckpt.IntervalID

	// Chandy–Lamport round state. clCut is staged once the local snapshot
	// is complete; the round finalizes when it and every marker are in.
	clActive        bool
	clID            uint64
	clSnapshotTaken bool
	clMarkersIn     map[wire.Rank]bool
	clCut           *cut

	// Stop-and-sync round state (safe-point adaptation: the cut happens
	// at the step boundary, and the "sync" drains announced in-flight
	// messages into recorded channel state instead of blocking senders).
	sfsActive  bool
	sfsID      uint64
	sfsCut     *cut
	sfsTargets map[wire.Rank]uint64 // peer -> messages it sent us pre-cut
	sfsFlushes map[wire.Rank]bool
	// draining is set from just before the cut until the hand-off, so
	// onArrival wakes the loop for every message counted after the cut.
	draining atomic.Bool

	// Coordinator (rank 0) ack collection and commit tracking. due: a round
	// was asked for while one ran; it starts once that one has ended, so
	// a round that outlasts the cadence delays the next rather than
	// cancelling it.
	acks         map[wire.Rank]bool
	ackRound     uint64
	awaitingAcks bool
	due          bool
}

func newCRModule(p *Process) *crModule {
	return &crModule{p: p, nextIndex: 1}
}

// ---- checkpoint payload: application state + MPI-layer state ----

// encodeMsgList serializes captured data messages (pending queue, recorded
// channel state, or the sender-side log).
func encodeMsgList(msgs []mpi.RecordedMsg) []byte {
	w := wire.NewWriter(16 + 24*len(msgs))
	writeMsgList(w, msgs)
	return w.Bytes()
}

func writeMsgList(w *wire.Writer, msgs []mpi.RecordedMsg) {
	w.U32(uint32(len(msgs)))
	for _, m := range msgs {
		w.U32(uint32(m.Src)).U32(uint32(m.Dst)).I32(m.Tag)
		w.U64(m.Interval).U64(m.Seq).Bytes32(m.Data)
	}
}

// minMsgEntry is the encoded size of a message with no payload.
const minMsgEntry = 32

func readMsgList(r *wire.Reader) []mpi.RecordedMsg {
	n := r.U32()
	// The count is input: size the list by what the remaining bytes can
	// hold, not by what they claim.
	msgs := make([]mpi.RecordedMsg, 0, min(uint64(n), uint64(r.Remaining()/minMsgEntry)))
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		m := mpi.RecordedMsg{
			Src:      wire.Rank(r.U32()),
			Dst:      wire.Rank(r.U32()),
			Tag:      r.I32(),
			Interval: r.U64(),
			Seq:      r.U64(),
		}
		m.Data = append([]byte(nil), r.Bytes32()...)
		msgs = append(msgs, m)
	}
	return msgs
}

// decodeMsgList parses a list written by encodeMsgList.
func decodeMsgList(b []byte) ([]mpi.RecordedMsg, error) {
	r := wire.NewReader(b)
	msgs := readMsgList(r)
	return msgs, r.Err()
}

// A checkpoint's state bundles the application snapshot (length-prefixed)
// with the MPI layer's pending (received-but-unconsumed) messages and, for
// Chandy–Lamport and stop-and-sync, the recorded channel state.
// ckptStateSize is its encoded size.
func ckptStateSize(appState []byte, pending, recorded []mpi.RecordedMsg) int {
	n := 4 + len(appState)
	for _, msgs := range [][]mpi.RecordedMsg{pending, recorded} {
		n += 4
		for _, m := range msgs {
			n += minMsgEntry + len(m.Data)
		}
	}
	return n
}

// decodeCkptState splits the state capture wrote. appState is a view into
// b (the application makes the one copy, in Restore); message payloads are
// copied, because they are handed to the application to keep.
func decodeCkptState(b []byte) (appState []byte, pending, recorded []mpi.RecordedMsg, err error) {
	r := wire.NewReader(b)
	appState = r.Bytes32()
	pending = readMsgList(r)
	recorded = readMsgList(r)
	if r.Err() != nil {
		return nil, nil, nil, r.Err()
	}
	return appState, pending, recorded, nil
}

// imageBuf is a whole checkpoint image kept between epochs: the application
// state of snapshot number snap is img[off:off+n], stored as checkpoint index.
type imageBuf struct {
	img         []byte
	off, n      int
	snap, index uint64
	dirty       []svm.Span // where it differs from snapshot snap-1's; nil: unknown
}

func (b imageBuf) state() []byte { return b.img[b.off : b.off+b.n] }

// sameBytes reports whether a and b are the same non-empty memory.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// cut is what a process captures at its snapshot point: the application
// state and the MPI layer's pending messages and counters.
type cut struct {
	state []byte
	// at is when the application's snapshot was complete.
	at time.Time
	// snap is the snapshot's serial; into, when set, the spare the
	// application brought up to date: state is its state window.
	snap uint64
	into imageBuf
	// dirty lists the byte ranges of state that may differ from the state
	// snapshotted for checkpoint dirtyBase; nil when the application does
	// not track its writes or this is its first snapshot.
	dirty      []svm.Span
	dirtyBase  uint64
	pending    []mpi.RecordedMsg
	sent, recv map[wire.Rank]uint64
}

// epoch is a cut handed to the capture worker, with what storing it takes:
// the checkpoint index, the protocol's name for the record, the channel state
// that followed the cut (Chandy–Lamport, stop-and-sync), the meta to complete
// and whether the coordinator is owed an ack.
type epoch struct {
	idx      uint64
	protocol string
	c        *cut
	channel  []mpi.RecordedMsg
	meta     *ckpt.Meta
	ack      bool
}

// inflight is an epoch with its capture worker: done closes once the worker
// has stored the epoch, or failed to, and sent its ack; err, read after done,
// is the outcome.
type inflight struct {
	done chan struct{}
	err  error
}

// dirtyTracker is the optional App extension behind delta capture (VMApp
// implements it): every byte of the next Snapshot outside the spans equals
// the previous Snapshot's. A rank whose application tracks its writes stores
// each epoch as the blocks that changed since the last; any other stores
// whole images.
type dirtyTracker interface {
	DirtySpans() []svm.Span
}

// snapshotLender is the App extension behind in-place capture (VMApp.LendSnapshot).
type snapshotLender interface {
	LendSnapshot(dst, prev []byte, stale []svm.Span)
}

// snapshotApp takes the application's part of the cut for checkpoint idx.
// Main loop, step boundary. It first waits for the epoch before to be stored:
// that epoch's worker still reads the state the application returned, and
// swaps the buffers the spare is lent from. So at most one epoch per rank is
// in flight.
func (cr *crModule) snapshotApp(idx uint64, c *cut) error {
	cr.wait()
	app := cr.p.app
	// Snapshot re-baselines the write tracking: the hint is read first.
	if t, ok := app.(dirtyTracker); ok && cr.snapIndex != 0 {
		c.dirty, c.dirtyBase = t.DirtySpans(), cr.snapIndex
	}
	cr.snaps++
	c.snap = cr.snaps
	if l, ok := app.(snapshotLender); ok {
		// The spare becomes this snapshot's image when the buffers hold the
		// last snapshot and the one before, of one layout, and the last
		// one's changes are known; a round that never stored breaks that.
		base, spare := cr.base, cr.spare
		if spare.img != nil && base.dirty != nil && base.snap == c.snap-1 && spare.snap == base.snap-1 &&
			len(spare.img) == len(base.img) && spare.n == base.n {
			c.into, cr.spare = spare, imageBuf{} // being rewritten: nobody's image until it is stored
		}
		if c.into.img != nil {
			l.LendSnapshot(c.into.state(), base.state(), base.dirty)
		}
	}
	state, err := app.Snapshot()
	if err != nil {
		return fmt.Errorf("proc: snapshot: %w", err)
	}
	if c.into.img != nil && !sameBytes(state, c.into.state()) {
		c.into = imageBuf{} // declined: capture assembles
	}
	c.state, c.at = state, time.Now()
	cr.snapIndex = idx
	return nil
}

// handOff gives epoch e to a capture worker, a goroutine that lives as long as
// the epoch: it writes and stores the record, emits the epoch's records and,
// when e is owed one, acks the coordinator with the outcome. The rank steps
// on. Loop only.
func (cr *crModule) handOff(e epoch) {
	handed := time.Now()
	w := &inflight{done: make(chan struct{})}
	cr.worker = w
	go func() {
		defer close(w.done)
		w.err = cr.capture(e, handed.Sub(e.c.at), time.Since(handed))
		if w.err != nil {
			cr.p.logff("%v", w.err)
		}
		if e.ack {
			cr.sendAck(e.idx, w.err == nil)
		}
	}()
}

// wait blocks until the epoch handed off last is stored and acked, and
// returns its outcome. Loop only.
func (cr *crModule) wait() error {
	if cr.worker == nil {
		return nil
	}
	<-cr.worker.done
	return cr.worker.err
}

// capture writes checkpoint e.idx: the image — encoder header, application
// state, the cut's pending messages and the channel state that followed it —
// stored with e.meta completed from the cut, and the checkpoint record emitted
// under e's protocol name. It runs on the capture worker only; drain is how
// long the epoch took from its snapshot to its hand-off (the channel state's
// drain), wait how long it then waited for the worker. An epoch of an aborted
// process is not stored.
//
// An application that tracks its writes has its image assembled and kept: the
// record carries the blocks that differ from the last stored image, looking
// only at those the dirty hint names when the hint is relative to it, and
// the image becomes the next epoch's base. Any other application's record is
// written from the encoder's prefix, the state and the lists, so its state is
// copied once, into the record. Either way the record is handed to PutRecord.
func (cr *crModule) capture(e epoch, drain, wait time.Duration) error {
	p := cr.p
	idx, c, channel := e.idx, e.c, e.channel
	meta := e.meta
	meta.Rank, meta.Index, meta.SentCounts, meta.RecvCounts = p.rank, idx, c.sent, c.recv
	stateLen := ckptStateSize(c.state, c.pending, channel)
	_, tracks := p.app.(dirtyTracker)
	var parts [][]byte
	var next, last, base imageBuf
	var where []uint64
	var dirty []svm.Span
	var err error
	if tracks {
		next, err = cr.assemble(c, channel, stateLen)
		next.index, parts = idx, [][]byte{next.img}
		last, where = cr.base, cr.where
		if last.img != nil && last.index+1 == idx {
			base = last
			if c.dirty != nil && c.dirtyBase == last.index {
				dirty = imageSpans(next, c.dirty)
			}
		}
	} else {
		parts, err = cr.wholeParts(c, channel, stateLen)
	}
	stored := 0
	start := time.Now()
	if err == nil {
		rec := ckpt.RecordOf(idx, base.img, where, dirty, parts...)
		// PutRecord takes the record over: what is read of it is read first.
		stored = len(rec)
		if tracks {
			where = ckpt.CarryList(rec, where) // the next epoch's, in this one's array
		}
		if p.closed.Load() {
			wire.PutBuf(rec)
			err = ErrAborted
		} else {
			err = p.store.PutRecord(p.spec.ID, p.rank, idx, rec, meta)
		}
		if errors.Is(err, ckpt.ErrUnreplicated) && p.spec.Protocol == ckpt.Independent {
			// Stored here; no line commits on it and nothing is collected for it.
			p.logff("%v", err)
			err = nil
		}
	}
	store := time.Since(start)
	if tracks {
		cr.base, cr.spare, cr.where = imageBuf{}, imageBuf{}, nil
		if err == nil {
			cr.base, cr.spare, cr.where = next, last, where
		}
	}
	if err != nil {
		return fmt.Errorf("proc: store checkpoint %d: %w", idx, err)
	}
	size := 0
	for _, part := range parts {
		size += len(part)
	}
	ev := evstore.EvRank("epoch", p.spec.ID, p.rank,
		evstore.F("index", idx), evstore.F("raw", size), evstore.F("stored", stored),
		evstore.F("drain_us", drain.Microseconds()), evstore.F("wait_us", wait.Microseconds()),
		evstore.F("store_us", store.Microseconds()))
	ev.Component = "ckpt"
	p.event(ev)
	p.event(evstore.EvRank("checkpoint", p.spec.ID, p.rank,
		evstore.F("index", idx), evstore.F("protocol", e.protocol),
		evstore.F("bytes", size)))
	return nil
}

// writeLists writes the cut's pending messages and channel state into lists,
// sized for them by ckptStateSize.
func writeLists(lists []byte, pending, channel []mpi.RecordedMsg) error {
	w := wire.NewWriterOn(lists)
	writeMsgList(w, pending)
	writeMsgList(w, channel)
	if w.Len() != len(lists) {
		return fmt.Errorf("message lists encode to %d bytes, sized %d", w.Len(), len(lists))
	}
	return nil
}

// wholeParts returns the image in parts: the encoder's prefix, the state's
// length, the application state and the lists.
func (cr *crModule) wholeParts(c *cut, channel []mpi.RecordedMsg, stateLen int) ([][]byte, error) {
	p := cr.p
	frame := make([]byte, stateLen-len(c.state)) // the state's length, then the lists
	binary.BigEndian.PutUint32(frame, uint32(len(c.state)))
	if err := writeLists(frame[4:], c.pending, channel); err != nil {
		return nil, err
	}
	return append(p.encoder.Prefix(p.arch, stateLen), frame[:4], c.state, frame[4:]), nil
}

// assemble returns the image in one exactly-sized buffer: the spare — only
// the lists are written — when the application built its state there and the
// image kept its length, else a new one.
func (cr *crModule) assemble(c *cut, channel []mpi.RecordedMsg, stateLen int) (imageBuf, error) {
	p := cr.p
	img := c.into.img
	off := len(img) - stateLen + 4 // where an image of this size has the application state
	if img == nil || off != c.into.off {
		var window []byte
		img, window = ckpt.NewImage(p.encoder, p.arch, stateLen)
		off = len(img) - stateLen + 4
		wire.NewWriterOn(window).Bytes32(c.state)
	}
	// In place, the state is there and the rest depends only on lengths.
	err := writeLists(img[off+len(c.state):], c.pending, channel)
	return imageBuf{img: img, off: off, n: len(c.state), snap: c.snap, dirty: c.dirty}, err
}

// imageSpans shifts the cut's dirty hint, state offsets, to offsets of the
// image b. Outside the application state everything but the encoder's
// constant runtime segment counts as dirty: the image header, the two length
// prefixes in front of the state, the message lists behind it.
func imageSpans(b imageBuf, state []svm.Span) []svm.Span {
	dirty := make([]svm.Span, 0, len(state)+3)
	dirty = append(dirty, svm.Span{Off: 0, Len: 10}, svm.Span{Off: b.off - 8, Len: 8})
	for _, sp := range state {
		dirty = append(dirty, svm.Span{Off: b.off + sp.Off, Len: sp.Len})
	}
	return append(dirty, svm.Span{Off: b.off + b.n, Len: len(b.img) - b.off - b.n})
}

// ---- callbacks from the MPI matcher's intake ----
//
// They are called on the goroutine delivering the connection the message
// arrived on — on fastnet the sender's, inside its Send: concurrently across
// connections, in order within one. None sends on the data path, where the
// sender may be holding that connection, and none stores or hands off: they
// record and raise the loop's attention word. onReceive and onArrival run
// under the communicator's lock, after it counted the message.

// onReceive records a receipt for uncoordinated checkpointing: the message
// is counted, and no receive has matched it yet.
func (cr *crModule) onReceive(src wire.Rank, srcInterval uint64) {
	cr.receiptsMu.Lock()
	cr.receipts = append(cr.receipts, ckpt.IntervalID{Rank: src, Index: srcInterval})
	cr.receiptsMu.Unlock()
}

// onArrival wakes the loop of a stop-and-sync rank for a data message counted
// while a round is open: the message may be the last its drain awaits.
func (cr *crModule) onArrival(wire.Rank, uint64) {
	if cr.draining.Load() {
		cr.p.raise()
	}
}

// onMarker handles a Chandy–Lamport marker. Runs on the goroutine
// delivering the channel it arrived on, synchronously before any later
// message of that channel is processed — which is what makes
// StopRecordingFrom cut the channel's recorded state exactly at the marker.
// A marker before the rank's snapshot asks the loop for one; the marker that
// completes a round asks it to finalize.
func (cr *crModule) onMarker(src wire.Rank, id uint64) {
	cr.mu.Lock()
	if !cr.clActive {
		// A peer snapshotted first: this marker starts our round.
		cr.startRoundLocked(id)
	}
	if cr.clID != id {
		cr.mu.Unlock()
		return // stale marker from an aborted round
	}
	cr.clMarkersIn[src] = true
	if !cr.clSnapshotTaken {
		// Marker before our snapshot: every pre-snapshot message of this
		// channel has already arrived (FIFO), so its channel state is
		// empty. Post-marker messages that sneak into the queue before
		// our snapshot are harmless: they are captured with the pending
		// queue, and the sender's deterministic re-execution resends
		// them with the same per-pair sequence numbers, which duplicate
		// suppression drops. The loop takes the snapshot (serve).
		cr.mu.Unlock()
		cr.p.raise()
		return
	}
	cr.p.comm.StopRecordingFrom(src)
	finalize := cr.allMarkersInLocked()
	cr.mu.Unlock()
	if finalize {
		cr.p.raise()
	}
}

func (cr *crModule) startRoundLocked(id uint64) {
	cr.clActive = true
	cr.clID = id
	cr.clSnapshotTaken = false
	cr.clMarkersIn = make(map[wire.Rank]bool)
	cr.clCut = nil
}

// allMarkersInLocked reports whether the round can finalize. The staged
// cut, not clSnapshotTaken, is the condition: a marker that arrives while
// the main loop is still inside Snapshot must not finalize without state.
func (cr *crModule) allMarkersInLocked() bool {
	return cr.clCut != nil && len(cr.clMarkersIn) == cr.p.spec.Ranks-1
}

// serve does the module's round work at a safe point of the rank's loop:
// the Chandy–Lamport snapshot of a round a peer's marker started, the
// hand-off of a Chandy–Lamport round whose markers are all in, and that of a
// stop-and-sync round whose drain is complete.
func (cr *crModule) serve() error {
	cr.mu.Lock()
	id, snap := cr.clID, cr.clActive && !cr.clSnapshotTaken
	cr.mu.Unlock()
	if snap {
		if err := cr.clBegin(id); err != nil {
			return err
		}
	}
	cr.finalizeCL()
	cr.sfsPoll()
	return nil
}

// clBegin takes the local Chandy–Lamport snapshot. Main loop, at a step
// boundary.
func (cr *crModule) clBegin(id uint64) error {
	cr.mu.Lock()
	if !cr.clActive {
		cr.startRoundLocked(id)
	}
	if cr.clID != id || cr.clSnapshotTaken {
		cr.mu.Unlock()
		return nil
	}
	cr.clSnapshotTaken = true
	// Record every channel whose marker has not yet arrived.
	var recordFrom []wire.Rank
	for r := 0; r < cr.p.spec.Ranks; r++ {
		rank := wire.Rank(r)
		if rank != cr.p.rank && !cr.clMarkersIn[rank] {
			recordFrom = append(recordFrom, rank)
		}
	}
	c := &cut{}
	c.pending, c.sent, c.recv = cr.p.comm.Cut(recordFrom)
	cr.mu.Unlock()

	if err := cr.snapshotApp(id, c); err != nil {
		return err
	}

	cr.mu.Lock()
	cr.clCut = c
	cr.mu.Unlock()

	// Markers go out after the snapshot point and before any further
	// application sends (we are at a step boundary, so none can race).
	// The round finalizes in serve, which follows.
	for r := 0; r < cr.p.spec.Ranks; r++ {
		if rank := wire.Rank(r); rank != cr.p.rank {
			if err := cr.p.comm.SendMarker(rank, id); err != nil {
				cr.p.logff("marker to %d: %v", rank, err)
			}
		}
	}
	return nil
}

// finalizeCL hands a Chandy–Lamport round whose cut and markers are all in
// (snapshot + channel state) to the capture worker, which stores it and acks
// the coordinator. Loop only.
func (cr *crModule) finalizeCL() {
	cr.mu.Lock()
	if !cr.clActive || !cr.allMarkersInLocked() {
		cr.mu.Unlock()
		return
	}
	id, c := cr.clID, cr.clCut
	cr.clActive = false
	cr.lastIndex = id
	if cr.nextIndex <= id {
		cr.nextIndex = id + 1
	}
	cr.mu.Unlock()

	cr.handOff(epoch{idx: id, protocol: "chandy-lamport", c: c, channel: cr.p.comm.TakeRecorded(), meta: &ckpt.Meta{}, ack: true})
}

// sendAck tells the coordinator whether checkpoint id is stored here.
func (cr *crModule) sendAck(id uint64, stored bool) {
	w := wire.NewWriter(12)
	w.U64(id)
	w.Bool(stored)
	cr.p.send(wire.Msg{
		Type: wire.TCheckpoint, Kind: ckpt.KAck, App: cr.p.spec.ID,
		Src: cr.p.rank, Payload: w.Bytes(),
	})
}

// onAck collects coordinator-side acknowledgements (rank 0 only) of the
// round it awaits; an ack of any other round is stale and ignored. Once every
// rank has answered, the line commits if every rank stored its checkpoint,
// and the round is dropped otherwise: the next round opens the next index.
func (cr *crModule) onAck(from wire.Rank, id uint64, stored bool) {
	if cr.p.rank != 0 {
		return
	}
	cr.mu.Lock()
	if !cr.awaitingAcks || cr.ackRound != id {
		cr.mu.Unlock()
		return
	}
	if cr.acks == nil {
		cr.acks = make(map[wire.Rank]bool)
	}
	cr.acks[from] = stored
	complete := len(cr.acks) == cr.p.spec.Ranks
	due := false
	if complete {
		for _, ok := range cr.acks {
			stored = stored && ok
		}
		cr.acks = nil
		cr.awaitingAcks = false
		due, cr.due = cr.due, false
	}
	cr.mu.Unlock()
	if !complete {
		return
	}
	if due {
		cr.p.requestCheckpoint()
	}
	if !stored {
		cr.p.logff("checkpoint %d not stored at every rank: round dropped", id)
		return
	}
	line := make(ckpt.RecoveryLine, cr.p.spec.Ranks)
	for r := 0; r < cr.p.spec.Ranks; r++ {
		line[wire.Rank(r)] = id
	}
	if err := cr.p.store.CommitLine(cr.p.spec.ID, line); err != nil {
		cr.p.logff("commit line %d: %v", id, err)
		return
	}
	cr.p.event(evstore.EvApp("commit", cr.p.spec.ID, evstore.F("line", id)))
	w := wire.NewWriter(8)
	w.U64(id)
	cr.p.send(wire.Msg{
		Type: wire.TCheckpoint, Kind: ckpt.KCommit, App: cr.p.spec.ID,
		Src: cr.p.rank, Payload: w.Bytes(),
	})
}

// ---- independent (uncoordinated) checkpointing ----

// takeLocal takes an independent checkpoint's cut at the current boundary and
// hands it to the capture worker. It first waits for the checkpoint before,
// and returns its store error: the rank fail-stops rather than take a
// checkpoint after a missing one, whose meta held the receipts (Deps) and
// sends (SentLog) of the interval it closed.
func (cr *crModule) takeLocal() error {
	if err := cr.wait(); err != nil {
		return err
	}
	cr.mu.Lock()
	idx := cr.lastIndex + 1
	cr.mu.Unlock()

	c := &cut{}
	c.pending, c.sent, c.recv = cr.p.comm.Cut(nil)
	// Every message the cut counted was received in the interval this
	// checkpoint closes; one counted since is attributed to it too, which
	// can only make a recovery line roll back further.
	cr.receiptsMu.Lock()
	receipts := cr.receipts
	cr.receipts = nil
	cr.receiptsMu.Unlock()
	deps := make([]ckpt.Dep, len(receipts))
	for i, from := range receipts {
		deps[i] = ckpt.Dep{From: from, To: ckpt.IntervalID{Rank: cr.p.rank, Index: idx - 1}}
	}
	if err := cr.snapshotApp(idx, c); err != nil {
		return err
	}
	// Persist the sends of the interval this checkpoint closes, for
	// lost-message replay at restart.
	meta := &ckpt.Meta{Deps: deps, SentLog: encodeMsgList(cr.p.comm.TakeSentLog())}
	cr.handOff(epoch{idx: idx, protocol: "independent", c: c, meta: meta})

	cr.mu.Lock()
	cr.lastIndex = idx
	cr.mu.Unlock()
	// Entering interval idx: stamp subsequent sends with it.
	cr.p.comm.SetInterval(idx)
	return nil
}

// ---- stop-and-sync ----

// The paper's stop-and-sync protocol stops every process, drains the
// channels, dumps state, and resumes after the coordinator commits. This
// runtime checkpoints at application safe points, where literally stopping
// a process can strand a peer mid-step, so the protocol is adapted: the
// "stop" is the cut each process takes at its next step boundary (state +
// pending queue + counters), and the "sync" drains the in-flight messages
// announced by every peer's flush into recorded channel state instead of
// blocking the senders. Per-pair sequence numbers make the cut exact: the
// checkpoint keeps exactly the messages with seq <= the sender's announced
// count, and duplicate suppression discards re-sends after restart.

// sfsBegin takes the local cut for round idx and announces sent counts.
// Main loop, step boundary.
func (cr *crModule) sfsBegin(idx uint64) error {
	cr.mu.Lock()
	if cr.sfsActive {
		// Either this round is already running (duplicate trigger —
		// merge) or a stale trigger for a different index arrived while
		// a round is in flight (drop it; the commit advances nextIndex).
		cr.mu.Unlock()
		return nil
	}
	cr.sfsActive = true
	cr.sfsID = idx
	cr.sfsTargets = make(map[wire.Rank]uint64)
	cr.sfsFlushes = make(map[wire.Rank]bool)
	cr.mu.Unlock()

	// Cut: capture pending + counters and record every channel from here
	// on (the recording is trimmed to the announced counts at finalize).
	// Set before the cut, draining makes onArrival wake the loop for every
	// message the cut does not count.
	var allPeers []wire.Rank
	for r := 0; r < cr.p.spec.Ranks; r++ {
		if rank := wire.Rank(r); rank != cr.p.rank {
			allPeers = append(allPeers, rank)
		}
	}
	cr.draining.Store(true)
	c := &cut{}
	c.pending, c.sent, c.recv = cr.p.comm.Cut(allPeers)
	if err := cr.snapshotApp(idx, c); err != nil {
		return err
	}
	sent := c.sent
	cr.sfsCut = c // loop only

	// Announce cumulative sent counts: each receiver drains until it has
	// everything we sent before our cut.
	fw := wire.NewWriter(16 + 12*len(sent))
	fw.U64(idx)
	fw.U32(uint32(len(sent)))
	for r := 0; r < cr.p.spec.Ranks; r++ {
		if n, ok := sent[wire.Rank(r)]; ok {
			fw.U32(uint32(r)).U64(n)
		}
	}
	cr.p.send(wire.Msg{
		Type: wire.TCheckpoint, Kind: ckpt.KFlush, App: cr.p.spec.ID,
		Src: cr.p.rank, Payload: fw.Bytes(),
	})
	return nil
}

// onFlush records a peer's announced sent counts. Main loop.
func (cr *crModule) onFlush(m wire.Msg) {
	r := wire.NewReader(m.Payload)
	idx := r.U64()
	n := r.U32()
	counts := make(map[wire.Rank]uint64, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		dst := wire.Rank(r.U32())
		counts[dst] = r.U64()
	}
	if r.Err() != nil {
		return
	}
	cr.mu.Lock()
	if !cr.sfsActive || cr.sfsID != idx {
		cr.mu.Unlock()
		return
	}
	if !cr.sfsFlushes[m.Src] {
		cr.sfsFlushes[m.Src] = true
		if m.Src != cr.p.rank {
			cr.sfsTargets[m.Src] = counts[cr.p.rank]
		}
	}
	cr.mu.Unlock()
}

// sfsPoll hands the round to the capture worker once every flush arrived and
// every announced message has been counted. Loop only. Until then the loop is
// woken by each flush (ctl) and by each message counted after the cut
// (onArrival).
func (cr *crModule) sfsPoll() {
	cr.mu.Lock()
	if !cr.sfsActive || len(cr.sfsFlushes) < cr.p.spec.Ranks {
		cr.mu.Unlock()
		return
	}
	recv := cr.p.comm.RecvCounts()
	for peer, want := range cr.sfsTargets {
		if recv[peer] < want {
			cr.mu.Unlock()
			return
		}
	}
	idx := cr.sfsID
	cr.draining.Store(false)
	cr.sfsActive = false
	cr.lastIndex = idx
	if cr.nextIndex <= idx {
		cr.nextIndex = idx + 1
	}
	cr.mu.Unlock()
	// Channel state: recorded messages up to each sender's announced
	// count; anything later was sent after the sender's cut and will be
	// resent by its re-execution. Taking the list ends the recording, so
	// traffic between rounds is not copied.
	var channelState []mpi.RecordedMsg
	for _, m := range cr.p.comm.TakeRecorded() {
		if m.Seq <= cr.sfsTargets[m.Src] {
			channelState = append(channelState, m)
		}
	}
	cr.handOff(epoch{idx: idx, protocol: "sync-flush", c: cr.sfsCut, channel: channelState, meta: &ckpt.Meta{}, ack: true})
}

// handleAckCommit processes KAck/KCommit outside and inside rounds.
func (cr *crModule) handleAckCommit(m wire.Msg) {
	r := wire.NewReader(m.Payload)
	id := r.U64()
	if r.Err() != nil {
		return
	}
	switch m.Kind {
	case ckpt.KAck:
		if stored := r.Bool(); r.Err() == nil {
			cr.onAck(m.Src, id, stored)
		}
	case ckpt.KCommit:
		cr.mu.Lock()
		if cr.lastIndex < id {
			cr.lastIndex = id
		}
		if cr.nextIndex <= id {
			cr.nextIndex = id + 1
		}
		cr.mu.Unlock()
		// A committed recovery line makes every older checkpoint of this
		// rank garbage (coordinated protocols only — the committed line
		// is always the restart point).
		if cr.p.spec.Protocol.Coordinated() {
			if err := cr.p.store.GC(cr.p.spec.ID, cr.p.rank, id); err != nil {
				cr.p.logff("checkpoint gc: %v", err)
			}
		}
	}
}

// initiate starts a checkpoint round of the configured protocol. For
// coordinated protocols only rank 0 initiates (broadcasting the request in
// the lightweight group); for the independent protocol the checkpoint is
// purely local.
func (cr *crModule) initiate() error {
	if cr.p.spec.Protocol == ckpt.Independent {
		return cr.takeLocal()
	}
	// Round indices are assigned by rank 0 (the checkpoint
	// coordinator). A user-initiated downcall on another rank casts a
	// proposal (index 0); rank 0 turns it into a real round. This
	// keeps a single index authority so delayed duplicate triggers
	// cannot restart old rounds.
	var idx uint64
	if cr.p.rank == 0 {
		cr.mu.Lock()
		if cr.clActive || cr.sfsActive || cr.awaitingAcks {
			cr.due = true // round already running: the next follows it
			cr.mu.Unlock()
			return nil
		}
		idx = cr.nextIndex
		cr.awaitingAcks, cr.ackRound, cr.acks = true, idx, nil
		cr.mu.Unlock()
	}
	w := wire.NewWriter(12)
	w.U64(idx)
	w.U8(uint8(cr.p.spec.Protocol))
	return cr.p.send(wire.Msg{
		Type: wire.TCheckpoint, Kind: ckpt.KRequest, App: cr.p.spec.ID,
		Src: cr.p.rank, Payload: w.Bytes(),
	})

}

// handleRequest reacts to a KRequest broadcast (main loop, step boundary).
func (cr *crModule) handleRequest(m wire.Msg) error {
	r := wire.NewReader(m.Payload)
	idx := r.U64()
	proto := ckpt.Protocol(r.U8())
	if r.Err() != nil {
		return nil
	}
	if idx == 0 {
		// A proposal from another rank: rank 0 starts a real round.
		if cr.p.rank == 0 {
			return cr.initiate()
		}
		return nil
	}
	cr.mu.Lock()
	if idx < cr.nextIndex {
		// A stale duplicate of an already-completed round; starting it
		// again would overwrite the committed checkpoint.
		cr.mu.Unlock()
		return nil
	}
	cr.mu.Unlock()
	switch proto {
	case ckpt.StopAndSync:
		return cr.sfsBegin(idx)
	case ckpt.ChandyLamport:
		return cr.clBegin(idx)
	case ckpt.Independent:
		return cr.takeLocal()
	}
	return nil
}

// roundsOutstanding reports whether protocol work is still unfinished at
// this process: an active local round, or (rank 0) a commit still owed.
// Completing processes stay alive until this clears, so checkpoints that
// straddle application completion still commit.
func (cr *crModule) roundsOutstanding() bool {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.clActive || cr.sfsActive || cr.awaitingAcks
}
