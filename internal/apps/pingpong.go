package apps

import (
	"fmt"
	"time"

	"starfish/internal/proc"
	"starfish/internal/wire"
)

// PingPong is the paper's round-trip latency application (§5, figure 5):
// rank 0 sends a message of a given size to rank 1, which immediately
// replies; the elapsed time is measured at the application level and
// averaged over Reps repetitions per size. Results accumulate in the
// Results field (self-inspection) and are printed when Report is set.
type PingPong struct {
	Sizes  []int
	Reps   int
	Report bool

	sizeIdx int
	Results []PingResult
}

// PingResult is the measured round trip for one message size.
type PingResult struct {
	Size int
	RTT  time.Duration
}

const pingTag int32 = 300

// PingPongArgs encodes submission arguments.
func PingPongArgs(sizes []int, reps int, report bool) []byte {
	w := wire.NewWriter(16 + 4*len(sizes))
	w.U32(uint32(reps)).Bool(report)
	w.U32(uint32(len(sizes)))
	for _, s := range sizes {
		w.U32(uint32(s))
	}
	return w.Bytes()
}

// DecodePingPong parses PingPongArgs.
func DecodePingPong(args []byte) (*PingPong, error) {
	r := wire.NewReader(args)
	a := &PingPong{Reps: int(r.U32()), Report: r.Bool()}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		a.Sizes = append(a.Sizes, int(r.U32()))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if a.Reps <= 0 {
		a.Reps = 100
	}
	return a, nil
}

// PingPongName is the registered application name.
const PingPongName = "pingpong"

func init() {
	proc.Register(PingPongName, func(args []byte) (proc.App, error) { return DecodePingPong(args) })
}

// Init implements proc.App.
func (a *PingPong) Init(ctx *proc.Ctx) error {
	if ctx.Size < 2 {
		return fmt.Errorf("pingpong needs 2 ranks, got %d", ctx.Size)
	}
	return nil
}

// Restore implements proc.App (latency runs are not checkpointed midway;
// restart repeats from the current size).
func (a *PingPong) Restore(_ *proc.Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.sizeIdx = int(r.U32())
	return r.Err()
}

// Snapshot implements proc.App.
func (a *PingPong) Snapshot() ([]byte, error) {
	w := wire.NewWriter(4)
	w.U32(uint32(a.sizeIdx))
	return w.Bytes(), nil
}

// Step implements proc.App: one step measures one message size (Reps round
// trips). Ranks beyond 1 idle.
func (a *PingPong) Step(ctx *proc.Ctx) (bool, error) {
	if a.sizeIdx >= len(a.Sizes) {
		return true, nil
	}
	size := a.Sizes[a.sizeIdx]
	a.sizeIdx++

	switch ctx.Rank {
	case 0:
		buf := make([]byte, size)
		start := time.Now()
		for i := 0; i < a.Reps; i++ {
			if err := ctx.Comm.Send(1, pingTag, buf); err != nil {
				return false, err
			}
			// The echo is as long as buf and lands in it.
			if _, _, err := ctx.Comm.RecvInto(1, pingTag, buf); err != nil {
				return false, err
			}
		}
		rtt := time.Since(start) / time.Duration(a.Reps)
		a.Results = append(a.Results, PingResult{Size: size, RTT: rtt})
		if a.Report {
			fmt.Printf("pingpong: %8d B  round-trip %10v  one-way %10v\n",
				size, rtt, rtt/2)
		}
	case 1:
		for i := 0; i < a.Reps; i++ {
			data, st, err := ctx.Comm.Recv(0, pingTag)
			if err != nil {
				return false, err
			}
			err = ctx.Comm.Send(0, pingTag, data)
			if st.Pooled {
				wire.PutBuf(data)
			}
			if err != nil {
				return false, err
			}
		}
	}
	return a.sizeIdx >= len(a.Sizes), nil
}
