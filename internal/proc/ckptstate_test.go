package proc

import (
	"bytes"
	"reflect"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/wire"
)

func encodeCkptState(appState []byte, pending, recorded []mpi.RecordedMsg) []byte {
	w := wire.NewWriter(ckptStateSize(appState, pending, recorded))
	w.Bytes32(appState)
	writeMsgList(w, pending)
	writeMsgList(w, recorded)
	return w.Bytes()
}

// TestDecodeCkptStateBorrows pins what the restore path copies: the
// application state is a view into the image (App.Restore makes the one
// copy), while message payloads — which applications keep — are copies.
func TestDecodeCkptStateBorrows(t *testing.T) {
	msgs := []mpi.RecordedMsg{{Src: 1, Dst: 0, Tag: 7, Interval: 2, Seq: 9, Data: []byte("payload")}}
	b := encodeCkptState(bytes.Repeat([]byte{0x5A}, 1024), msgs, msgs)
	appState, pending, recorded, err := decodeCkptState(b)
	if err != nil {
		t.Fatal(err)
	}
	if &appState[0] != &b[4] {
		t.Error("application state was copied out of the image, want a view into it")
	}
	if !reflect.DeepEqual(pending, msgs) || !reflect.DeepEqual(recorded, msgs) {
		t.Fatalf("message lists = %v / %v, want %v", pending, recorded, msgs)
	}
	for i := range b {
		b[i] = 0
	}
	if string(pending[0].Data) != "payload" || string(recorded[0].Data) != "payload" {
		t.Error("a message payload aliases the image, want a copy")
	}
}

// sfsCkptState runs the pending-queue job to its stop-and-sync checkpoint
// and returns the state rank 1 wrote: three unconsumed messages included.
func sfsCkptState(tb testing.TB) []byte {
	spec := AppSpec{
		ID: 46, Name: "test-pending", Ranks: 2,
		Protocol: ckpt.StopAndSync, Encoder: ckpt.Portable, Policy: PolicyRestart,
	}
	h := newHarness(tb, spec)
	h.launch(nil)
	line := h.waitForCommittedLine()
	h.abortAll()
	img, _, err := h.store.Get(spec.ID, 1, line[1])
	if err != nil {
		tb.Fatal(err)
	}
	state, err := spec.NewEncoder().Decode(img, svm.Machines[0])
	if err != nil {
		tb.Fatal(err)
	}
	return state
}

// FuzzDecodeCkptState feeds the restore path's state splitter arbitrary
// bytes: it must not panic, must not size anything by a count it merely read
// (a list claiming 2^32 entries used to allocate 2^32 × 56 bytes), and must
// round-trip whatever it accepts.
func FuzzDecodeCkptState(f *testing.F) {
	real := sfsCkptState(f)
	if _, pending, _, err := decodeCkptState(real); err != nil || len(pending) != 3 {
		f.Fatalf("seed image: %d pending messages, %v; want the job's 3", len(pending), err)
	}
	f.Add(real)
	channel := []mpi.RecordedMsg{
		{Src: 0, Dst: 1, Tag: 77, Interval: 1, Seq: 4, Data: []byte("in flight")},
		{Src: 0, Dst: 1, Tag: 77, Interval: 1, Seq: 5},
	}
	f.Add(encodeCkptState([]byte("app"), channel[:1], channel))
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // 2^32-1 pending messages, none present
	f.Fuzz(func(t *testing.T, b []byte) {
		appState, pending, recorded, err := decodeCkptState(b)
		copied := 0
		for _, list := range [][]mpi.RecordedMsg{pending, recorded} {
			if cap(list) > len(b)/minMsgEntry {
				t.Fatalf("list capacity %d from %d input bytes", cap(list), len(b))
			}
			for _, m := range list {
				copied += len(m.Data)
			}
		}
		if copied > len(b) {
			t.Fatalf("copied %d payload bytes out of %d input bytes", copied, len(b))
		}
		if err != nil {
			return
		}
		again := encodeCkptState(appState, pending, recorded)
		if !bytes.HasPrefix(b, again) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		a2, p2, r2, err := decodeCkptState(again)
		if err != nil || !bytes.Equal(a2, appState) || !reflect.DeepEqual(p2, pending) || !reflect.DeepEqual(r2, recorded) {
			t.Fatalf("round trip changed the state (%v)", err)
		}
	})
}
