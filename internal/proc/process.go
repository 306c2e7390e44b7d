package proc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/evstore"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Process errors.
var (
	ErrAborted = errors.New("proc: aborted by daemon")
)

// Config assembles one application process.
type Config struct {
	Spec AppSpec
	Rank wire.Rank
	// Arch is the simulated architecture of the hosting node.
	Arch svm.Arch
	// Store is the checkpoint backend this application writes to and
	// restores from (disk, replicated memory, or tiered — chosen per
	// application at submission time).
	Store ckpt.Backend
	// ToDaemon hands a message to the local daemon's lightweight endpoint
	// module (the paper's local connection). The daemon calls back with
	// Deliver and Close.
	ToDaemon func(wire.Msg)
	// Transport and ListenAddr create the process's data-path NIC.
	Transport  vni.Transport
	ListenAddr string
	// Timer optionally instruments the data path (Figure 6).
	Timer *vni.StageTimer
	// Events optionally receives structured records about the process
	// lifecycle and checkpoint protocol (the daemon passes its store's
	// "proc" emitter).
	Events evstore.Sink
	// Logf optionally receives runtime diagnostics.
	Logf func(string, ...any)
}

// Process is one running application process: the container of Figure 1's
// application module, C/R module, MPI module and VNI. Its group handler is
// no goroutine: the daemon calls Deliver and Close, and the process calls
// back through Config.ToDaemon.
type Process struct {
	spec    AppSpec
	rank    wire.Rank
	arch    svm.Arch
	store   ckpt.Backend
	daemon  func(wire.Msg)
	nic     *vni.NIC
	comm    *mpi.Comm
	app     App
	cr      *crModule
	events  evstore.Sink
	encoder ckpt.Encoder
	timer   *vni.StageTimer
	logf    func(string, ...any)

	ctx *Ctx

	// ctl is the queue of daemon messages for the main loop (filled by
	// Deliver). It is the paper's object bus (§2.2): the one route by which
	// configuration, lightweight-membership, coordination and C/R messages
	// reach the process's modules; the scheduler takes the whole queue and
	// hands each message to its module at a step boundary.
	ctlMu    sync.Mutex
	ctl      []wire.Msg
	deferred []wire.Msg

	// attn is the attention word. Whoever queues work for the scheduler
	// raises it (raise): Deliver and Close, the C/R module's intake
	// callbacks, a checkpoint request. The scheduler reads it once per step
	// and takes its slow path (attend) only when it is set. wake carries one
	// token to a scheduler that is blocked, suspended or finished.
	attn atomic.Uint32
	wake chan struct{}

	viewHandler  func(alive, departed []wire.Rank)
	coordHandler func(from wire.Rank, payload []byte)
	pendingViews []LWViewInfo
	pendingCoord []wire.Msg

	ckptRequested bool
	suspended     bool
	// closed is set by Close: the daemon tore the process down.
	closed atomic.Bool

	// cmu guards comm for access from Close (out-of-band abort).
	cmu sync.Mutex

	sinceCkpt uint64

	done chan struct{}
	err  error
}

// New creates a process. Its data NIC starts listening immediately (the
// daemon reads Addr to publish the placement), but execution waits for the
// daemon's CfgStart message. Run the process with Start.
func New(cfg Config) (*Process, error) {
	nic, err := vni.NewNIC(cfg.Transport, cfg.ListenAddr, 0)
	if err != nil {
		return nil, err
	}
	app, err := NewApp(cfg.Spec.Name, cfg.Spec.Args)
	if err != nil {
		nic.Close()
		return nil, err
	}
	p := &Process{
		spec:    cfg.Spec,
		rank:    cfg.Rank,
		arch:    cfg.Arch,
		store:   cfg.Store,
		daemon:  cfg.ToDaemon,
		nic:     nic,
		app:     app,
		events:  cfg.Events,
		encoder: cfg.Spec.NewEncoder(),
		timer:   cfg.Timer,
		logf:    cfg.Logf,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	p.cr = newCRModule(p)
	return p, nil
}

// Addr returns the process's data-path listen address.
func (p *Process) Addr() string { return p.nic.Addr() }

// Rank returns the process rank.
func (p *Process) Rank() wire.Rank { return p.rank }

// Done is closed when the process terminates.
func (p *Process) Done() <-chan struct{} { return p.done }

// Err returns the terminal error (nil on success); valid after Done.
func (p *Process) Err() error { return p.err }

// Start launches the main loop.
func (p *Process) Start() { go p.run() }

// Deliver queues a message from the daemon for the main loop. It never
// blocks.
func (p *Process) Deliver(m wire.Msg) {
	wire.CountMsg(m.Type)
	p.ctlMu.Lock()
	p.ctl = append(p.ctl, m)
	p.ctlMu.Unlock()
	p.raise()
}

// Close is the daemon tearing the process down: the process sends nothing
// more, and its main loop aborts at its next pass. An application blocked
// inside a receive is interrupted by closing its communicator, so that pass
// comes; whatever error that surfaces is reported as ErrAborted.
func (p *Process) Close() {
	p.closed.Store(true)
	p.cmu.Lock()
	if p.comm != nil {
		p.comm.Close()
	}
	p.cmu.Unlock()
	p.raise()
}

// send hands a message to the daemon; after Close it reaches none.
func (p *Process) send(m wire.Msg) error {
	wire.CountMsg(m.Type)
	if p.closed.Load() {
		return ErrAborted
	}
	p.daemon(m)
	return nil
}

// takeCtl takes the queued daemon messages.
func (p *Process) takeCtl() []wire.Msg {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	msgs := p.ctl
	p.ctl = nil
	return msgs
}

// event forwards a structured record to the configured sink.
func (p *Process) event(r evstore.Record) {
	if p.events != nil {
		p.events.Emit(r)
	}
}

func (p *Process) logff(format string, args ...any) {
	if p.logf != nil {
		p.logf(fmt.Sprintf("[app %d rank %d] ", p.spec.ID, p.rank)+format, args...)
	}
}

func (p *Process) requestCheckpoint() {
	p.ckptRequested = true
	p.raise()
}

// raise sets the attention word, after the caller queued work for the
// scheduler, and wakes the scheduler if it is blocked. Safe from any
// goroutine. Only the raise that sets the word sends the token: one that
// finds it set comes before the scheduler clears it, and so before it looks
// for work.
func (p *Process) raise() {
	if p.attn.Swap(1) == 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// run is the scheduler: it waits for the daemon's start message, builds
// the MPI module, restores state if this is a restart, and then runs one
// loop in three states. Running, it steps the application and, between
// steps, does the work queued for it whenever the attention word is set;
// suspended, it blocks until woken and does that work; finished, it does the
// same in linger until the daemon tears it down.
func (p *Process) run() {
	defer func() {
		if p.comm != nil {
			p.comm.Close()
		}
		p.nic.Close()
		// Done means done storing too: a daemon that waited for it sees no
		// checkpoint written after.
		p.cr.wait()
		close(p.done)
	}()

	si, ok := p.waitStart()
	if !ok {
		p.err = ErrAborted
		p.reportDone(p.err)
		return
	}
	if err := p.initialize(si); err != nil {
		p.err = err
		p.reportDone(err)
		return
	}
	if si.Restore && si.RestoreIndex > 0 {
		p.event(evstore.EvRank("restore", p.spec.ID, p.rank,
			evstore.F("index", si.RestoreIndex), evstore.F("size", si.Size)))
	} else {
		p.event(evstore.EvRank("start", p.spec.ID, p.rank,
			evstore.F("size", si.Size)))
	}

	// Messages deferred before the start wait for the first pass.
	p.attn.Store(1)
	for {
		// A compute-bound Step never blocks: without this yield a rank
		// keeps its processor from its own node's daemon, group engines
		// and stores until the scheduler's 10 ms preemption, and every hop
		// of a commit or a failure-detector probe waits that long.
		runtime.Gosched()
		if p.attn.Load() != 0 {
			if err := p.attend(false); err != nil {
				p.finish(err)
				return
			}
		}
		if p.suspended {
			<-p.wake
			continue
		}

		done, err := p.app.Step(p.ctx)
		if err != nil {
			p.finish(err)
			return
		}
		p.sinceCkpt++
		if p.spec.CkptEverySteps > 0 && p.sinceCkpt >= p.spec.CkptEverySteps {
			p.sinceCkpt = 0
			// A rank steps on while its epoch is stored, but not past the
			// next cadence point: a store slower than the cadence slows the
			// rank instead of letting its recovery line fall behind.
			p.cr.wait()
			// System-initiated cadence: coordinated rounds start at rank
			// 0 only (the index authority); the independent protocol
			// checkpoints locally at every rank.
			if p.rank == 0 || p.spec.Protocol == ckpt.Independent {
				if err := p.cr.initiate(); err != nil {
					p.finish(err)
					return
				}
			}
		}
		if done {
			// A rank reports completion once its last epoch is stored. An
			// independent checkpoint that failed to store fails the rank,
			// as at the next one (takeLocal).
			if err := p.cr.wait(); err != nil && p.spec.Protocol == ckpt.Independent {
				p.finish(err)
				return
			}
			p.linger()
			return
		}
	}
}

// attend is the scheduler's slow path, taken in every state once the
// attention word is set: it clears the word, handles the daemon's messages,
// and does the C/R module's work at this safe point (cr.serve). A running
// rank then delivers its upcalls, and a rank that has not finished starts a
// checkpoint asked for. It returns the error that ends the process.
func (p *Process) attend(finished bool) error {
	p.attn.Store(0)
	if p.closed.Load() {
		return ErrAborted
	}
	if err := p.drainCtl(); err != nil {
		return err
	}
	if !finished && !p.suspended {
		p.deliverUpcalls()
	}
	if err := p.cr.serve(); err != nil {
		return err
	}
	if p.ckptRequested && !finished {
		p.ckptRequested = false
		return p.cr.initiate()
	}
	return nil
}

// linger is the finished state. The coordinator first serves until the
// rounds it takes part in or coordinates have finished, so end-of-run
// checkpoints still commit, for at most 10 s, so a crashed peer cannot hold
// it hostage. Then the rank reports done and serves C/R protocol traffic
// (acks, markers, flushes, late round requests) until its daemon closes the
// connection (all ranks reported done) or aborts it, for at most 60 s:
// without this, a round started just before the last step would lose
// participants and never commit.
func (p *Process) linger() {
	if p.rank == 0 && !p.serveFor(10*time.Second, p.cr.roundsOutstanding) {
		p.logff("giving up on unfinished checkpoint round")
	}
	p.finish(nil)
	if !p.closed.Load() {
		p.serveFor(60*time.Second, func() bool { return true })
	}
}

// serveFor does the work the scheduler is woken for while more holds and the
// process is neither aborted nor failed, for at most d. It reports whether it
// stopped before d was up.
func (p *Process) serveFor(d time.Duration, more func() bool) bool {
	bound := time.NewTimer(d)
	defer bound.Stop()
	for more() {
		select {
		case <-p.wake:
		case <-bound.C:
			return false
		}
		if err := p.attend(true); err != nil {
			if !errors.Is(err, ErrAborted) {
				p.logff("finished rank: %v", err)
			}
			return true
		}
	}
	return true
}

func (p *Process) finish(err error) {
	if p.closed.Load() && err != nil {
		err = ErrAborted
	}
	p.err = err
	p.reportDone(err)
}

func (p *Process) reportDone(err error) {
	kv := []evstore.KV{}
	if err != nil {
		kv = append(kv, evstore.F("err", err.Error()))
	}
	p.event(evstore.EvRank("done", p.spec.ID, p.rank, kv...))
	msg := wire.Msg{Type: wire.TConfiguration, Kind: CfgDone, App: p.spec.ID, Src: p.rank}
	if err != nil {
		msg.Payload = []byte(err.Error())
	}
	p.send(msg)
}

// waitStart blocks until CfgStart, buffering any earlier protocol traffic
// for handling once the communicator exists.
func (p *Process) waitStart() (StartInfo, bool) {
	for {
		p.attn.Store(0)
		if p.closed.Load() {
			return StartInfo{}, false
		}
		msgs := p.takeCtl()
		for i, m := range msgs {
			if m.Type != wire.TConfiguration {
				p.deferred = append(p.deferred, m)
				continue
			}
			if m.Kind != CfgStart {
				continue
			}
			p.deferred = append(p.deferred, msgs[i+1:]...)
			si, err := DecodeStartInfo(m.Payload)
			if err != nil {
				p.logff("bad start info: %v", err)
				return StartInfo{}, false
			}
			return si, true
		}
		<-p.wake
	}
}

// initialize builds the communicator and application state for this
// incarnation.
func (p *Process) initialize(si StartInfo) error {
	mcfg := mpi.Config{
		App:   p.spec.ID,
		Rank:  p.rank,
		Size:  si.Size,
		NIC:   p.nic,
		Addrs: si.Addrs,
		Timer: p.timer,
	}
	switch p.spec.Protocol {
	case ckpt.StopAndSync:
		mcfg.OnReceive = p.cr.onArrival
	case ckpt.ChandyLamport:
		mcfg.OnMarker = p.cr.onMarker
	case ckpt.Independent:
		mcfg.OnReceive = p.cr.onReceive
		mcfg.LogSends = true
	}
	// On a restart, read the checkpoint before building the communicator:
	// the restored sequence counts must be live from the communicator's
	// first instant. Ranks restore at different speeds, and a peer that
	// finished earlier is already re-sending messages our restored state
	// has consumed; if the communicator took messages in with zeroed counts
	// even briefly, those duplicates would be accepted instead of
	// suppressed and would desynchronize the application permanently.
	restore := si.Restore && si.RestoreIndex > 0
	var state []byte
	if restore {
		img, meta, err := p.store.Get(p.spec.ID, p.rank, si.RestoreIndex)
		if err != nil {
			return fmt.Errorf("proc: restart: %w", err)
		}
		mcfg.SentCounts, mcfg.RecvCounts = meta.SentCounts, meta.RecvCounts
		raw, err := p.encoder.Decode(img, p.arch)
		if err != nil {
			return fmt.Errorf("proc: restart decode: %w", err)
		}
		// The MPI-layer state goes in with the counts, for the same
		// reason: a peer's new message accepted before the restored ones
		// were queued would be received ahead of them.
		if state, mcfg.Pending, mcfg.ChannelState, err = decodeCkptState(raw); err != nil {
			return fmt.Errorf("proc: restart state: %w", err)
		}
	}
	// The communicator's callbacks into the C/R module start with it.
	if p.cr.nextIndex = si.NextCkptIndex; p.cr.nextIndex == 0 {
		p.cr.nextIndex = 1
	}
	if restore {
		p.cr.lastIndex = si.RestoreIndex
	}
	comm, err := mpi.New(mcfg)
	if err != nil {
		return err
	}
	p.cmu.Lock()
	p.comm = comm
	aborting := p.closed.Load()
	p.cmu.Unlock()
	if aborting {
		comm.Close()
		return ErrAborted
	}
	p.ctx = &Ctx{
		Comm: comm, Rank: p.rank, Size: si.Size,
		Gen: si.Gen, Arch: p.arch, p: p,
	}

	if restore {
		if err := p.app.Restore(p.ctx, state); err != nil {
			return fmt.Errorf("proc: restore: %w", err)
		}
		comm.SetInterval(si.RestoreIndex)
		if p.spec.Protocol == ckpt.Independent {
			if err := p.replayLostMessages(si); err != nil {
				return fmt.Errorf("proc: log replay: %w", err)
			}
		}
		return nil
	}
	return p.app.Init(p.ctx)
}

// replayLostMessages implements the recovery side of sender-based message
// logging for uncoordinated checkpointing: messages this rank sent before
// its restore point, which a peer's restored state has not yet received,
// are retransmitted from the persisted log. Without this step, rolled-back
// receivers would wait forever for messages nobody will resend (the
// classic lost-message problem of independent checkpointing).
func (p *Process) replayLostMessages(si StartInfo) error {
	// Collect this rank's logged sends from every checkpoint up to the
	// restore point, in order.
	var logged []mpi.RecordedMsg
	indices, err := p.store.List(p.spec.ID, p.rank)
	if err != nil {
		return err
	}
	for _, n := range indices {
		if n > si.RestoreIndex {
			continue
		}
		_, meta, err := p.store.Get(p.spec.ID, p.rank, n)
		if err != nil {
			return err
		}
		if len(meta.SentLog) == 0 {
			continue
		}
		msgs, err := decodeMsgList(meta.SentLog)
		if err != nil {
			return err
		}
		logged = append(logged, msgs...)
	}
	if len(logged) == 0 {
		return nil
	}
	// For each peer, find how far its restored state had received from
	// us, and replay everything past that.
	received := make(map[wire.Rank]uint64, si.Size)
	for r := 0; r < si.Size; r++ {
		rank := wire.Rank(r)
		if rank == p.rank {
			continue
		}
		if idx := si.Line[rank]; idx > 0 {
			_, meta, err := p.store.Get(p.spec.ID, rank, idx)
			if err != nil {
				return err
			}
			received[rank] = meta.RecvCounts[p.rank]
		}
	}
	for _, m := range logged {
		if m.Seq > received[m.Dst] {
			if err := p.comm.Replay(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainCtl handles all queued control messages without blocking.
func (p *Process) drainCtl() error {
	msgs := p.takeCtl()
	if len(p.deferred) > 0 {
		msgs = append(p.deferred, msgs...)
		p.deferred = nil
	}
	for _, m := range msgs {
		if err := p.handleCtl(m); err != nil {
			return err
		}
	}
	return nil
}

// handleCtl dispatches one daemon message. Runs in the main loop, i.e. at
// a step boundary — the safe point for protocol work.
func (p *Process) handleCtl(m wire.Msg) error {
	switch m.Type {
	case wire.TConfiguration:
		switch m.Kind {
		case CfgCkptNow:
			p.ckptRequested = true
		case CfgSuspend:
			p.suspended = true
		case CfgResume:
			p.suspended = false
		}
	case wire.TCheckpoint:
		switch m.Kind {
		case ckpt.KRequest:
			return p.cr.handleRequest(m)
		case ckpt.KAck, ckpt.KCommit:
			p.cr.handleAckCommit(m)
		case ckpt.KFlush:
			p.cr.onFlush(m)
		}
	case wire.TCoordination:
		p.pendingCoord = append(p.pendingCoord, m)
	case wire.TLWMembership:
		if m.Kind == LWViewKind {
			v, err := DecodeLWViewInfo(m.Payload)
			if err == nil {
				for _, dead := range v.Departed {
					p.comm.SetDead(dead)
				}
				p.pendingViews = append(p.pendingViews, v)
			}
		}
	}
	return nil
}

// deliverUpcalls invokes registered application handlers for queued view
// changes and coordination messages.
func (p *Process) deliverUpcalls() {
	if len(p.pendingViews) > 0 {
		views := p.pendingViews
		p.pendingViews = nil
		if p.viewHandler != nil {
			for _, v := range views {
				p.viewHandler(v.Alive, v.Departed)
			}
		}
	}
	if len(p.pendingCoord) > 0 {
		msgs := p.pendingCoord
		p.pendingCoord = nil
		if p.coordHandler != nil {
			for _, m := range msgs {
				p.coordHandler(m.Src, m.Payload)
			}
		}
	}
}
