package proc

import (
	"fmt"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/wire"
)

// pendingApp verifies that messages sitting unconsumed in the MPI receive
// queue at checkpoint time are part of the checkpoint and are re-delivered
// after restart, and that the sender's restored sequence state prevents
// both loss and duplication.
//
// Rank 0 sends three tagged messages and then waits for an "ok". Rank 1
// lets them arrive WITHOUT consuming them, requests a checkpoint, and then
// idles; only a restored incarnation (Gen > 0) consumes — so the three
// payloads it reads can only have come from the checkpoint's captured
// pending queue.
type pendingApp struct {
	phase int64
}

const pendingTag int32 = 77

func init() {
	Register("test-pending", func([]byte) (App, error) { return &pendingApp{}, nil })
}

func (a *pendingApp) Init(*Ctx) error { return nil }

func (a *pendingApp) Restore(_ *Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.phase = r.I64()
	return r.Err()
}

func (a *pendingApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(8)
	w.I64(a.phase)
	return w.Bytes(), nil
}

func (a *pendingApp) Step(ctx *Ctx) (bool, error) {
	switch ctx.Rank {
	case 0:
		if a.phase == 0 {
			for i := 0; i < 3; i++ {
				if err := ctx.Comm.Send(1, pendingTag, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
					return false, err
				}
			}
			a.phase = 1
			return false, nil
		}
		// Wait for rank 1's confirmation (only sent after a restart).
		// Poll instead of blocking so this rank keeps reaching step
		// boundaries and can participate in checkpoint rounds.
		if _, ok := ctx.Comm.Iprobe(1, pendingTag); !ok {
			time.Sleep(time.Millisecond)
			return false, nil
		}
		data, _, err := ctx.Comm.Recv(1, pendingTag)
		if err != nil {
			return false, err
		}
		if string(data) != "ok" {
			return true, fmt.Errorf("rank 0: got %q", data)
		}
		return true, nil
	default:
		if a.phase == 0 {
			// Let all three messages arrive without consuming them; poll so
			// this rank keeps reaching step boundaries.
			if ctx.Comm.RecvCounts()[0] < 3 {
				time.Sleep(time.Millisecond)
				return false, nil
			}
			ctx.RequestCheckpoint()
			a.phase = 1
			return false, nil
		}
		if ctx.Gen == 1 {
			// Pre-crash incarnation: idle until the harness aborts us.
			time.Sleep(time.Millisecond)
			return false, nil
		}
		// Restored incarnation: the three messages must be waiting in the
		// restored pending queue, in order.
		for i := 0; i < 3; i++ {
			data, _, err := ctx.Comm.Recv(0, pendingTag)
			if err != nil {
				return false, err
			}
			if want := fmt.Sprintf("msg-%d", i); string(data) != want {
				return true, fmt.Errorf("rank 1: pending[%d] = %q, want %q", i, data, want)
			}
		}
		// No duplicates may follow.
		if _, ok := ctx.Comm.Iprobe(0, pendingTag); ok {
			return true, fmt.Errorf("rank 1: duplicate pending message")
		}
		return true, ctx.Comm.Send(0, pendingTag, []byte("ok"))
	}
}

func TestPendingQueueSurvivesRestart(t *testing.T) {
	for _, protocol := range []ckpt.Protocol{ckpt.StopAndSync, ckpt.ChandyLamport} {
		t.Run(protocol.String(), func(t *testing.T) {
			spec := AppSpec{
				ID: wire.AppID(40 + uint32(protocol)), Name: "test-pending", Ranks: 2,
				Protocol: protocol, Encoder: ckpt.Portable, Policy: PolicyRestart,
			}
			h := newHarness(t, spec)
			h.launch(nil)
			line := h.waitForCommittedLine()
			if line[1] == 0 {
				t.Fatalf("line = %v", line)
			}
			h.abortAll()
			h.launch(line)
			h.waitAll()
		})
	}
}

func TestPendingQueueSurvivesIndependentRestart(t *testing.T) {
	spec := AppSpec{
		ID: 44, Name: "test-pending", Ranks: 2,
		Protocol: ckpt.Independent, Encoder: ckpt.Native, Policy: PolicyRestart,
	}
	h := newHarness(t, spec)
	h.launch(nil)
	// Independent: rank 1 checkpoints locally (no commit); wait for its
	// checkpoint to appear.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if ns, _ := h.store.List(spec.ID, 1); len(ns) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.abortAll()
	line, err := ckpt.GatherLine(h.store, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 may have no checkpoint: it restarts from scratch and its
	// sends are suppressed as duplicates at rank 1... but rank 1's line
	// entry must not be orphaned by rank 0's resends — ComputeRecoveryLine
	// handles that via the recorded dependencies. Fill missing entries.
	if _, ok := line[0]; !ok {
		line[0] = 0
	}
	h.launch(line)
	h.waitAll()
}

// pacedApp sleeps each step so checkpoint rounds are spaced out enough for
// several to commit during one run.
type pacedApp struct{ step int64 }

func init() {
	Register("test-paced", func([]byte) (App, error) { return &pacedApp{}, nil })
}

func (a *pacedApp) Init(*Ctx) error { return nil }
func (a *pacedApp) Restore(_ *Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.step = r.I64()
	return r.Err()
}
func (a *pacedApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(8)
	w.I64(a.step)
	return w.Bytes(), nil
}
func (a *pacedApp) Step(*Ctx) (bool, error) {
	a.step++
	time.Sleep(2 * time.Millisecond)
	return a.step >= 150, nil
}

func TestCommittedLineGarbageCollectsOldCheckpoints(t *testing.T) {
	spec := AppSpec{
		ID: 45, Name: "test-paced", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyRestart,
	}
	spec.CkptEverySteps = 25 // several rounds over the run
	h := newHarness(t, spec)
	h.launch(nil)
	h.waitAll()
	line, err := h.store.CommittedLine(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if line[0] < 2 {
		t.Fatalf("want at least two committed rounds, line = %v", line)
	}
	for r := wire.Rank(0); r < 2; r++ {
		ns, err := h.store.List(spec.ID, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) == 0 {
			t.Fatalf("rank %d has no checkpoints", r)
		}
		// Every commit garbage-collects older checkpoints; the very last
		// commit's collection can race process teardown, so at most one
		// checkpoint below the final line may survive.
		if len(ns) > 2 || ns[len(ns)-1] < line[r] {
			t.Errorf("rank %d: surviving checkpoints %v vs committed line %d",
				r, ns, line[r])
		}
	}
}
