package gcs

import (
	"sync"
	"time"

	"starfish/internal/gossip"
	"starfish/internal/wire"
)

// Detector is what an engine needs from failure detection. The engine
// drives it, carries its protocol messages over the group's own transport,
// passes on what the transport noticed, and acts on nothing but Dead: the
// coordinator removes dead members, members fail over from a dead
// coordinator. There are two
// implementations: *gossip.Detector (SWIM; one instance per endpoint, the
// daemon's main group) and *Verdicts (decided elsewhere; one instance
// shared by every per-app group of an lwg.Router).
type Detector interface {
	// SetMembers reconciles the tracked peers with a newly agreed view.
	SetMembers(ids []wire.NodeID)
	// Tick advances the detector's timers and returns the protocol
	// messages to transmit, and when it next needs to run (zero: it keeps
	// no timers; the engine's own tick is soon enough).
	Tick(now time.Time) ([]gossip.Envelope, time.Time)
	// Handle processes one received protocol message and returns replies.
	Handle(now time.Time, payload []byte) ([]gossip.Envelope, error)
	// Probe passes on transport evidence — the connection to the member
	// was seen closing — and returns the messages that check on it.
	Probe(now time.Time, n wire.NodeID) []gossip.Envelope
	// Dead reports whether the member is currently considered crashed.
	Dead(n wire.NodeID) bool
	// Agreed reports whether Dead verdicts were already agreed
	// cluster-wide. The engine then skips its primary-partition quorum
	// rule, which exists to contain one node's mistaken opinion — a
	// two-member app group must be able to lose a member without wedging.
	Agreed() bool
}

// Verdicts is the Detector of groups that run no detection of their own:
// a set of nodes some outside authority has declared dead (the lwg router
// mirrors the main group's view changes into one). It is safe for
// concurrent use, so one set can serve any number of engines, and an
// engine that joins after a verdict was set sees it on its first tick.
// The zero value is an empty set.
type Verdicts struct {
	mu   sync.Mutex
	dead map[wire.NodeID]bool
}

// Set records (dead=true) or retracts (dead=false) the verdict on a node.
func (v *Verdicts) Set(n wire.NodeID, dead bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !dead {
		delete(v.dead, n)
		return
	}
	if v.dead == nil {
		v.dead = make(map[wire.NodeID]bool)
	}
	v.dead[n] = true
}

// Dead implements Detector.
func (v *Verdicts) Dead(n wire.NodeID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dead[n]
}

// Agreed implements Detector: whoever fills the set did the agreeing.
func (*Verdicts) Agreed() bool { return true }

// SetMembers implements Detector; verdicts are not scoped to one view.
func (*Verdicts) SetMembers([]wire.NodeID) {}

// Tick implements Detector; a verdict set has no protocol of its own.
func (*Verdicts) Tick(time.Time) ([]gossip.Envelope, time.Time) { return nil, time.Time{} }

// Probe implements Detector; whoever fills the set does the checking.
func (*Verdicts) Probe(time.Time, wire.NodeID) []gossip.Envelope { return nil }

// Handle implements Detector; a verdict set has no protocol of its own.
func (*Verdicts) Handle(time.Time, []byte) ([]gossip.Envelope, error) { return nil, nil }
