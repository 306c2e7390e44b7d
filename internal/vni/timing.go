package vni

import (
	"sync"
	"time"
)

// Stage identifies a software layer a message passes through. Figure 6 of
// the paper reports the time a message spends in each layer for both the
// send and the receive direction; because messages are never copied between
// layers, these times are independent of message size.
type Stage uint8

// The instrumented layers, matching Figure 1's application-process boxes.
const (
	// StageAppSend: from the application's send call until the MPI module
	// takes over.
	StageAppSend Stage = iota
	// StageMPISend: inside the MPI module (matching bookkeeping, header
	// construction) until the message is handed to the VNI.
	StageMPISend
	// StageVNISend: inside the VNI until the message is on the network
	// (transport Send returns).
	StageVNISend
	// StageVNIRecv: from the matcher's intake taking the message until it
	// is in the matcher's queue. On fastnet the intake runs inside the
	// sender's Conn.Send, so this is stamped on the sender's goroutine, and
	// StageVNISend includes it.
	StageVNIRecv
	// StageMPIRecv: matching an arrived message against a posted receive.
	StageMPIRecv
	// StageAppRecv: from match until the application's receive call
	// returns.
	StageAppRecv

	StageCount
)

// String returns the layer name used in Figure-6 output.
func (s Stage) String() string {
	switch s {
	case StageAppSend:
		return "application(send)"
	case StageMPISend:
		return "mpi(send)"
	case StageVNISend:
		return "vni(send)"
	case StageVNIRecv:
		return "vni(recv)"
	case StageMPIRecv:
		return "mpi(recv)"
	case StageAppRecv:
		return "application(recv)"
	default:
		return "unknown-stage"
	}
}

// StageTimer accumulates per-layer durations, and — for the fast-path copy
// budget — per-layer payload copy and allocation counts. A nil *StageTimer
// is valid and records nothing, so the hot path pays only a nil check when
// profiling is off.
type StageTimer struct {
	mu        sync.Mutex
	total     [StageCount]time.Duration
	count     [StageCount]uint64
	copies    [StageCount]uint64
	copyBytes [StageCount]uint64
	allocs    [StageCount]uint64
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer { return &StageTimer{} }

// Add records one traversal of stage taking d.
func (t *StageTimer) Add(stage Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total[stage] += d
	t.count[stage]++
	t.mu.Unlock()
}

// Mean returns the average time per traversal of stage, or 0 if the stage
// was never recorded.
func (t *StageTimer) Mean(stage Stage) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count[stage] == 0 {
		return 0
	}
	return t.total[stage] / time.Duration(t.count[stage])
}

// Count returns how many traversals of stage were recorded.
func (t *StageTimer) Count(stage Stage) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[stage]
}

// AddCopy records one payload copy of n bytes attributed to stage.
func (t *StageTimer) AddCopy(stage Stage, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.copies[stage]++
	t.copyBytes[stage] += uint64(n)
	t.mu.Unlock()
}

// AddAlloc records one heap allocation attributed to stage (a buffer-pool
// miss on the fast path counts here; a pool hit does not).
func (t *StageTimer) AddAlloc(stage Stage) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.allocs[stage]++
	t.mu.Unlock()
}

// Copies returns the number of payload copies and total bytes copied
// recorded against stage.
func (t *StageTimer) Copies(stage Stage) (copies, bytes uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.copies[stage], t.copyBytes[stage]
}

// Allocs returns the number of allocations recorded against stage.
func (t *StageTimer) Allocs(stage Stage) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.allocs[stage]
}

// Reset clears all accumulated data.
func (t *StageTimer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = [StageCount]time.Duration{}
	t.count = [StageCount]uint64{}
	t.copies = [StageCount]uint64{}
	t.copyBytes = [StageCount]uint64{}
	t.allocs = [StageCount]uint64{}
	t.mu.Unlock()
}
