package cluster

import (
	"fmt"
	"testing"

	"starfish/internal/evstore"
	"starfish/internal/wire"
)

// TestKillIsConfirmedByCorroboration kills one node of four under the
// detector settings jobs run with outside the suite (5 ms probes, 150 ms
// budget) and checks the shape of the verdict rather than its wall time:
// the first member to call the victim dead does so on corroborated
// suspicion — K = 2 further first-hand accusers on record before it, the
// most a four-member group can supply — the group changes view exactly
// once, and nobody who lives is ever called dead.
func TestKillIsConfirmedByCorroboration(t *testing.T) {
	c, err := New(Options{Nodes: 4, StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	waitMainView(t, c, 4)

	const victim = wire.NodeID(3)
	const expected = 2 // min(IndirectFanout, members-2)
	survivors := []wire.NodeID{1, 2, 4}
	killSeq := make(map[wire.NodeID]uint64)
	for _, id := range survivors {
		st, err := c.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		killSeq[id] = st.LastSeq()
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	waitMainView(t, c, 3)

	var first *evstore.Record // earliest confirm-dead anywhere
	for _, id := range survivors {
		st, _ := c.Events(id)
		verdicts := evWait(t, st, "component=gossip kind=confirm-dead", 1)
		if len(verdicts) == 0 {
			t.Fatalf("node %d never confirmed the victim dead", id)
		}
		for i := range verdicts {
			r := &verdicts[i]
			if target, _ := r.Get("target"); target != fmt.Sprint(victim) {
				t.Errorf("live node called dead: %s", r)
			}
			if first == nil || r.WriteTS < first.WriteTS {
				first = r
			}
		}
		views := evWait(t, st, fmt.Sprintf("component=gcs kind=view-change seq>%d", killSeq[id]), 1)
		if len(views) != 1 {
			t.Errorf("node %d: %d view changes after the kill, want exactly 1", id, len(views))
		}
	}
	if via, _ := first.Get("via"); via != "timeout" {
		t.Errorf("the first verdict was hearsay: %s", first)
	}
	st, _ := c.Events(first.Node)
	before := evWait(t, st, fmt.Sprintf("component=gossip kind=corroborate target=%d seq<%d", victim, first.Seq), expected)
	if len(before) < expected {
		t.Errorf("%d corroborations precede the first verdict, want >= %d: %s", len(before), expected, first)
	}
	if n, _ := first.Get("confirmations"); n != fmt.Sprint(expected) {
		t.Errorf("first verdict counts %s confirmations, want %d: %s", n, expected, first)
	}
	if testing.Verbose() {
		for _, id := range survivors {
			st, _ := c.Events(id)
			for _, r := range evWait(t, st, fmt.Sprintf("component=gossip seq>%d", killSeq[id]), 0) {
				t.Log(r.String())
			}
		}
	}
}
