package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed interval at a layer boundary. Spans of one request
// (a sampled step, a checkpoint epoch, a recovery) share ID; Parent is the
// index, in the same trace, of the span that caused this one (-1 for the
// request's root). Times are unix nanoseconds.
type span struct {
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer collects spans in memory; it is written out once, when the
// benchmark ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer for a traced repetition, nil for an untraced one.
func newTracer(traced bool) *tracer {
	if !traced {
		return nil
	}
	return &tracer{}
}

// add records a span and returns its index, for children to name as parent.
func (t *tracer) add(id uint64, parent int, name string, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// Request-id spaces, so spans of different request kinds never share an id.
const (
	reqStep     uint64 = 1 << 60
	reqEpoch    uint64 = 2 << 60
	reqRecovery uint64 = 3 << 60
)

func stepReq(rank int, n int64) uint64 { return reqStep | uint64(rank)<<48 | uint64(n) }

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}
