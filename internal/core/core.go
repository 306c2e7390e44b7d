// Package core is the public face of the Starfish reproduction: the API a
// downstream user programs against. It assembles the full system — the
// simulated cluster of workstations, the daemons with their group
// communication and lightweight groups, the application-process runtime,
// the MPI library, and the checkpoint/restart machinery — behind a small
// surface: create an environment, register applications, submit jobs,
// manage and observe them, and inject faults.
//
// Application code implements core.App (an alias of proc.App): an
// Init/Step/Snapshot/Restore state machine whose Step exchanges MPI
// messages through core.Ctx.Comm. Everything else — placement, spawning,
// address exchange, checkpoint protocols, failure handling — is the
// runtime's job, exactly as in the paper.
package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/cluster"
	"starfish/internal/daemon"
	"starfish/internal/mgmt"
	"starfish/internal/proc"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

// Re-exported identifier types.
type (
	// AppID identifies a submitted application.
	AppID = wire.AppID
	// NodeID identifies a cluster node.
	NodeID = wire.NodeID
	// Rank is an MPI rank.
	Rank = wire.Rank
)

// Application-model re-exports: user programs import only core.
type (
	// App is the application interface (Init/Step/Snapshot/Restore).
	App = proc.App
	// Ctx is the per-process application context (Comm + upcalls).
	Ctx = proc.Ctx
	// Arch describes a simulated machine architecture.
	Arch = svm.Arch
)

// Protocol and policy constants.
const (
	// StopAndSync is the blocking coordinated checkpoint protocol of the
	// paper's measurements.
	StopAndSync = ckpt.StopAndSync
	// ChandyLamport is the non-blocking coordinated snapshot protocol.
	ChandyLamport = ckpt.ChandyLamport
	// Independent is uncoordinated checkpointing with recovery-line
	// computation at restart.
	Independent = ckpt.Independent

	// Native checkpoints are process-level (homogeneous).
	Native = ckpt.Native
	// Portable checkpoints are VM-level (heterogeneous).
	Portable = ckpt.Portable

	// PolicyKill aborts an application on partial failure.
	PolicyKill = proc.PolicyKill
	// PolicyRestart restarts from the last recovery line.
	PolicyRestart = proc.PolicyRestart
	// PolicyNotify delivers view-change upcalls to survivors.
	PolicyNotify = proc.PolicyNotify

	// StoreDisk keeps checkpoints on the shared file system (default).
	StoreDisk = ckpt.StoreDisk
	// StoreMemory keeps checkpoints in replicated daemon RAM for
	// disk-free recovery.
	StoreMemory = ckpt.StoreMemory
	// StoreTiered is memory-first with asynchronous disk spill.
	StoreTiered = ckpt.StoreTiered
)

// RegisterApp makes an application constructor available for submission
// under name (all nodes run the same binary). It panics on duplicates.
func RegisterApp(name string, factory func(args []byte) (App, error)) {
	proc.Register(name, factory)
}

// Options configures an environment.
type Options = cluster.Options

// Job describes one application submission.
type Job struct {
	ID    AppID
	Name  string // registered application name
	Args  []byte // application arguments
	Ranks int
	// Protocol defaults to StopAndSync, Encoder to Portable, Policy to
	// PolicyRestart.
	Protocol ckpt.Protocol
	Encoder  ckpt.Kind
	Policy   proc.Policy
	// CheckpointEverySteps enables automatic checkpoint rounds.
	CheckpointEverySteps uint64
	Owner                string
	// Store selects the checkpoint storage backend (StoreDisk,
	// StoreMemory, or StoreTiered); the zero value is StoreDisk.
	Store ckpt.StoreKind
	// Delta enables incremental checkpoint capture: an epoch stores only
	// the blocks that changed since the previous one.
	Delta bool
}

func (j Job) spec() proc.AppSpec {
	s := proc.AppSpec{
		ID: j.ID, Name: j.Name, Args: j.Args, Ranks: j.Ranks,
		Protocol: j.Protocol, Encoder: j.Encoder, Policy: j.Policy,
		CkptEverySteps: j.CheckpointEverySteps, Owner: j.Owner,
		Store: j.Store, DeltaCkpt: j.Delta,
	}
	if s.Protocol == 0 {
		s.Protocol = ckpt.StopAndSync
	}
	if s.Encoder == 0 {
		s.Encoder = ckpt.Portable
	}
	if s.Policy == 0 {
		s.Policy = proc.PolicyRestart
	}
	return s
}

// Status is an application status snapshot.
type Status = daemon.AppInfo

// Application states.
const (
	StatusRunning = daemon.StatusRunning
	StatusDone    = daemon.StatusDone
	StatusFailed  = daemon.StatusFailed
)

// Starfish is a running Starfish environment: a simulated cluster of
// workstations executing the full runtime stack.
type Starfish struct {
	c      *cluster.Cluster
	mgmtLn net.Listener
}

// New boots an environment with the given options.
func New(opts Options) (*Starfish, error) {
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	return &Starfish{c: c}, nil
}

// Shutdown stops every node (and the management listener, if any).
func (s *Starfish) Shutdown() {
	if s.mgmtLn != nil {
		s.mgmtLn.Close()
	}
	s.c.Shutdown()
}

// Cluster exposes the underlying simulated cluster (fault injection,
// store access, per-node daemons).
func (s *Starfish) Cluster() *cluster.Cluster { return s.c }

// Nodes lists the live nodes.
func (s *Starfish) Nodes() []NodeID { return s.c.Nodes() }

// AddNode grows the cluster by one workstation.
func (s *Starfish) AddNode() (NodeID, error) { return s.c.AddNode() }

// Crash kills a node abruptly (fault injection).
func (s *Starfish) Crash(id NodeID) error { return s.c.Crash(id) }

// RemoveNode removes a node gracefully.
func (s *Starfish) RemoveNode(id NodeID) error { return s.c.Leave(id) }

// WaitView blocks until every daemon sees a view with n members. Each
// pass waits on the generation channel of the first lagging daemon — the
// one whose view change is still outstanding — with a short fallback
// timer covering changes that land on other daemons first.
func (s *Starfish) WaitView(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		var lagging <-chan struct{}
		for _, id := range s.c.Nodes() {
			d, err := s.c.Daemon(id)
			if err != nil {
				all = false
				break
			}
			ch := d.Changed() // before the read, so no view edge is lost
			if len(d.View().Members) != n {
				all = false
				lagging = ch
				break
			}
		}
		if all {
			return nil
		}
		t := time.NewTimer(5 * time.Millisecond)
		select {
		case <-lagging:
		case <-t.C:
		}
		t.Stop()
	}
	return fmt.Errorf("core: view never reached %d members", n)
}

// Submit launches a job.
func (s *Starfish) Submit(j Job) error {
	if j.Ranks <= 0 {
		return errors.New("core: job needs at least one rank")
	}
	if j.Name == "" {
		return errors.New("core: job needs an application name")
	}
	return s.c.Submit(j.spec())
}

// Wait blocks until the application terminates (Done or Failed).
func (s *Starfish) Wait(app AppID, timeout time.Duration) (Status, error) {
	return s.c.WaitApp(app, timeout)
}

// Run submits a job and waits for it.
func (s *Starfish) Run(j Job, timeout time.Duration) (Status, error) {
	if err := s.Submit(j); err != nil {
		return Status{}, err
	}
	return s.Wait(j.ID, timeout)
}

// Status reports an application's current state.
func (s *Starfish) Status(app AppID) (Status, bool) {
	d := s.c.AnyDaemon()
	if d == nil {
		return Status{}, false
	}
	return d.AppInfo(app)
}

// Checkpoint triggers a checkpoint round.
func (s *Starfish) Checkpoint(app AppID) error { return s.c.AnyDaemon().Checkpoint(app) }

// Suspend pauses an application at its next safe points.
func (s *Starfish) Suspend(app AppID) error { return s.c.AnyDaemon().Suspend(app) }

// Resume continues a suspended application.
func (s *Starfish) Resume(app AppID) error { return s.c.AnyDaemon().Resume(app) }

// Delete terminates and forgets an application.
func (s *Starfish) Delete(app AppID) error { return s.c.AnyDaemon().Delete(app) }

// Migrate restarts an application from its latest recovery line with a
// freshly computed placement (process migration, §3.2.1).
func (s *Starfish) Migrate(app AppID) error { return s.c.AnyDaemon().Migrate(app) }

// CommittedLine returns the last committed recovery line of an
// application, read from whichever storage backend the application
// checkpoints to.
func (s *Starfish) CommittedLine(app AppID) (ckpt.RecoveryLine, error) {
	d := s.c.AnyDaemon()
	if d == nil {
		return nil, errors.New("core: no live daemons")
	}
	return d.CommittedLine(app)
}

// ServeManagement starts the ASCII management service (§3.1.1) on addr
// ("127.0.0.1:0" for an ephemeral port) and returns the bound address.
func (s *Starfish) ServeManagement(addr, adminPassword string) (string, error) {
	if s.mgmtLn != nil {
		return "", errors.New("core: management service already running")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mgmtLn = l
	//starfish:allow goleak server lives for the sim cluster; Serve returns when s.mgmtLn is closed in Stop
	go mgmt.NewServer(s.c.AnyDaemon(), adminPassword).Serve(l)
	return l.Addr().String(), nil
}
