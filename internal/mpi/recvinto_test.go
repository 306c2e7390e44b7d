package mpi

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"starfish/internal/wire"
)

// TestRecvInto: the payload lands at the front of the caller's buffer, its
// length is returned, wildcards match as in Recv, and after every call the
// transport buffer is back in the pool (the guard would panic on a double
// release; the balance shows there was no leak).
func TestRecvInto(t *testing.T) {
	comms := world(t, 3)
	for _, tc := range []struct {
		name     string
		from     int
		tag      int32
		payload  string
		src      wire.Rank
		matchTag int32
		room     int
	}{
		{"exact fit", 0, 7, "12345678", 0, 7, 8},
		{"short payload", 0, 7, "abc", 0, 7, 16},
		{"empty payload", 0, 7, "", 0, 7, 4},
		{"any source", 2, 9, "from two", wire.AnyRank, 9, 8},
		{"any tag", 0, 11, "tagged", 0, wire.AnyTag, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gets0, puts0, _ := wire.Pool.Stats()
			if err := comms[tc.from].Send(1, tc.tag, []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, tc.room)
			for i := range dst {
				dst[i] = '.'
			}
			copied0 := wire.CopiedBytes()
			n, st, err := comms[1].RecvInto(tc.src, tc.matchTag, dst)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.payload + string(dst[len(tc.payload):])
			if n != len(tc.payload) || string(dst) != want {
				t.Errorf("n = %d, dst = %q; want %d, %q", n, dst, len(tc.payload), want)
			}
			if st.Source != wire.Rank(tc.from) || st.Tag != tc.tag || st.Pooled {
				t.Errorf("status = %+v", st)
			}
			if copied := wire.CopiedBytes() - copied0; copied != uint64(n) {
				t.Errorf("receive counted %d copied bytes, want %d", copied, n)
			}
			waitPoolBalance(t, gets0, puts0)
		})
	}
}

// TestRecvIntoTooLong: a payload longer than the buffer is ErrBadLength and
// stays matchable, ahead of what its sender sent next.
func TestRecvIntoTooLong(t *testing.T) {
	comms := world(t, 2)
	gets0, puts0, _ := wire.Pool.Stats()
	for _, s := range []string{"sixteen bytes!!!", "next"} {
		if err := comms[0].Send(1, 3, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	small := make([]byte, 8)
	if n, _, err := comms[1].RecvInto(0, 3, small); !errors.Is(err, ErrBadLength) || n != 0 {
		t.Fatalf("RecvInto a short buffer = %d, %v; want 0, ErrBadLength", n, err)
	}
	if st, ok := comms[1].Iprobe(0, 3); !ok || st.Source != 0 {
		t.Fatal("the refused message is no longer matchable")
	}
	big := make([]byte, 32)
	for _, want := range []string{"sixteen bytes!!!", "next"} {
		n, _, err := comms[1].RecvInto(0, 3, big)
		if err != nil || string(big[:n]) != want {
			t.Fatalf("RecvInto = %q, %v; want %q", big[:n], err, want)
		}
	}
	waitPoolBalance(t, gets0, puts0)
}

func TestRecvIntoClosedAndDead(t *testing.T) {
	comms := world(t, 3)
	buf := make([]byte, 8)
	comms[0].SetDead(2)
	if _, _, err := comms[0].RecvInto(2, 0, buf); !errors.Is(err, ErrPeerDead) {
		t.Errorf("RecvInto from a dead rank: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := comms[1].RecvInto(0, 0, buf)
		errc <- err
	}()
	comms[1].Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Errorf("RecvInto across Close: %v", err)
	}
}

// TestArrivalAfterCloseIsReleased: the NIC outlives the communicator, and its
// polling goroutines keep handing it messages; a closed communicator returns
// their buffers instead of queueing them for a receive that cannot come.
func TestArrivalAfterCloseIsReleased(t *testing.T) {
	var markers atomic.Int32
	comms := worldCfg(t, 2, func(cfg *Config) {
		if cfg.Rank == 1 {
			cfg.OnMarker = func(wire.Rank, uint64) { markers.Add(1) }
		}
	})
	comms[1].Close()
	gets0, puts0, _ := wire.Pool.Stats()
	for i := 0; i < 3; i++ {
		if err := comms[0].Send(1, 0, []byte("too late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := comms[0].SendMarker(1, 1); err != nil {
		t.Fatal(err)
	}
	waitPoolBalance(t, gets0, puts0)
	comms[1].mu.Lock()
	defer comms[1].mu.Unlock()
	if len(comms[1].unexpected) != 0 || markers.Load() != 0 {
		t.Errorf("closed communicator queued %d messages and took %d markers", len(comms[1].unexpected), markers.Load())
	}
}

// TestMarkerOrderAcrossPeers is the property crModule.onMarker relies on:
// with every peer sending at once — so the callbacks run on several polling
// goroutines — a marker and the data around it on one connection are handled
// in send order, and stopping the recording from inside the marker callback
// cuts each channel's recorded state exactly at its marker.
func TestMarkerOrderAcrossPeers(t *testing.T) {
	const ranks, before, after = 4, 20, 20
	var (
		comms  []*Comm
		mu     sync.Mutex
		events = make(map[wire.Rank][]byte) // per source: 'd' data, 'M' marker
	)
	comms = worldCfg(t, ranks, func(cfg *Config) {
		if cfg.Rank != 0 {
			return
		}
		cfg.OnReceive = func(src wire.Rank, _ uint64) {
			mu.Lock()
			events[src] = append(events[src], 'd')
			mu.Unlock()
		}
		cfg.OnMarker = func(src wire.Rank, _ uint64) {
			mu.Lock()
			events[src] = append(events[src], 'M')
			mu.Unlock()
			comms[0].StopRecordingFrom(src)
		}
	})
	comms[0].Cut([]wire.Rank{1, 2, 3})
	runRanks(t, comms, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < (ranks-1)*(before+after); i++ {
				if _, _, err := c.RecvInto(wire.AnyRank, 0, make([]byte, 8)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < before+after; i++ {
			if i == before {
				if err := c.SendMarker(0, 1); err != nil {
					return err
				}
			}
			if err := c.Send(0, 0, []byte{byte(c.Rank()), byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	want := strings.Repeat("d", before) + "M" + strings.Repeat("d", after)
	mu.Lock()
	for src := wire.Rank(1); src < ranks; src++ {
		if got := string(events[src]); got != want {
			t.Errorf("rank %d's channel was handled as %s", src, got)
		}
	}
	mu.Unlock()
	next := make(map[wire.Rank]byte)
	rec := comms[0].TakeRecorded()
	for _, m := range rec {
		if m.Data[1] != next[m.Src] || m.Data[1] >= before {
			t.Errorf("recorded message %d of rank %d out of place (want %d, all before %d)", m.Data[1], m.Src, next[m.Src], before)
		}
		next[m.Src]++
	}
	if len(rec) != (ranks-1)*before {
		t.Errorf("recorded %d messages, want the %d sent before the markers", len(rec), (ranks-1)*before)
	}
}
