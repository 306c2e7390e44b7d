package apps

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/proc"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// A restore borrows its state from the checkpoint store — Backend.Get hands
// out store memory, Decode and the state split return views into it, and
// App.Restore makes the only copy. These tests hold the in-repo applications
// to their half of that contract on every backend a restore can read from.

// scribbler overwrites every byte of state the wrapped application restored,
// the moment it restored it: had Restore kept a view into the borrowed state
// instead of a copy, the store's image would change under it.
type scribbler struct{ proc.App }

func (s scribbler) Restore(ctx *proc.Ctx, state []byte) error {
	if err := s.App.Restore(ctx, state); err != nil {
		return err
	}
	switch a := s.App.(type) {
	case *Ring:
		for i := range a.ballast {
			a.ballast[i] ^= 0xFF
		}
	case *Sizer:
		for i := range a.data {
			a.data[i] ^= 0xFF
		}
	case *proc.VMApp:
		for i := range a.VM().Mem {
			a.VM().Mem[i] ^= 0x7FFF
		}
	}
	return nil
}

func init() {
	for _, name := range []string{RingName, SizerName, proc.VMAppName} {
		name := name
		proc.Register("scribbling-"+name, func(args []byte) (proc.App, error) {
			a, err := proc.NewApp(name, args)
			return scribbler{a}, err
		})
	}
}

// countdown loops 20000 times without touching the heap, so the program's
// result does not depend on the ballast the scribbler overwrites.
const countdown = `
        push 20000
        storeg 0
loop:   loadg 0
        jz done
        loadg 0
        push 1
        sub
        storeg 0
        jmp loop
done:   halt`

var borrowApps = []struct {
	name string
	args []byte
}{
	{RingName, RingArgsBallast(300, 64<<10)},
	{SizerName, SizerArgsSleep(64<<10, 300, 0)},
	{proc.VMAppName, proc.EncodeVMApp(&proc.VMApp{StepSlice: 500, NGlobals: 1, HeapWords: 8 << 10, Source: countdown})},
}

// incarnation is one generation of a job's processes with the daemon's part
// played by the test: one total order for checkpoint traffic.
type incarnation struct {
	t      *testing.T
	procs  []*proc.Process
	relayq chan wire.Msg
	done   chan string
	closed chan struct{}
}

func startIncarnation(t *testing.T, fn *vni.Fastnet, spec proc.AppSpec, store ckpt.Backend, tag string, line ckpt.RecoveryLine) *incarnation {
	t.Helper()
	inc := &incarnation{t: t, relayq: make(chan wire.Msg, 1024), done: make(chan string, spec.Ranks), closed: make(chan struct{})}
	addrs := make(map[wire.Rank]string, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		p, err := proc.New(proc.Config{
			Spec: spec, Rank: wire.Rank(r), Arch: svm.Machines[0], Store: store,
			ToDaemon: inc.fromProcess, Transport: fn, ListenAddr: fmt.Sprintf("borrow-%s-r%d", tag, r),
		})
		if err != nil {
			t.Fatal(err)
		}
		inc.procs = append(inc.procs, p)
		addrs[wire.Rank(r)] = p.Addr()
	}
	t.Cleanup(inc.stop)
	go inc.relay()
	var next uint64 = 1
	for _, n := range line {
		next = max(next, n+1)
	}
	for r, p := range inc.procs {
		si := proc.StartInfo{Gen: 1, Size: spec.Ranks, Addrs: addrs, NextCkptIndex: next}
		if line != nil {
			si.Gen, si.Restore, si.RestoreIndex, si.Line = 2, true, line[wire.Rank(r)], line
		}
		p.Start()
		p.Deliver(wire.Msg{Type: wire.TConfiguration, Kind: proc.CfgStart, App: spec.ID, Payload: si.Encode()})
	}
	return inc
}

func (inc *incarnation) fromProcess(m wire.Msg) {
	switch {
	case m.Type == wire.TConfiguration && m.Kind == proc.CfgDone:
		inc.done <- string(m.Payload)
	case m.Type == wire.TCheckpoint || m.Type == wire.TCoordination:
		select {
		case inc.relayq <- m:
		case <-inc.closed:
		}
	}
}

func (inc *incarnation) relay() {
	for {
		select {
		case <-inc.closed:
			return
		case m := <-inc.relayq:
			for _, p := range inc.procs {
				p.Deliver(m)
			}
		}
	}
}

// stop tears the incarnation down the way its daemon would and waits for
// the processes to exit.
func (inc *incarnation) stop() {
	select {
	case <-inc.closed:
	default:
		close(inc.closed)
	}
	for _, p := range inc.procs {
		p.Close()
	}
	for _, p := range inc.procs {
		select {
		case <-p.Done():
		case <-time.After(30 * time.Second):
			inc.t.Error("process did not stop")
		}
	}
}

// finish waits for every rank to report a clean completion.
func (inc *incarnation) finish() {
	inc.t.Helper()
	for range inc.procs {
		select {
		case errText := <-inc.done:
			if errText != "" {
				inc.t.Fatalf("a rank failed: %s", errText)
			}
		case <-time.After(30 * time.Second):
			inc.t.Fatal("ranks did not finish")
		}
	}
}

// memStores builds n replicated-memory stores at two copies on a fastnet of
// their own, all in one view.
func memStores(t *testing.T, n int) []*rstore.Store {
	t.Helper()
	fn := vni.NewFastnet(0)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("borrow-rs%d", id) }
	var stores []*rstore.Store
	var members []wire.NodeID
	for id := wire.NodeID(1); int(id) <= n; id++ {
		s, err := rstore.New(rstore.Config{Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		stores, members = append(stores, s), append(members, id)
	}
	for _, s := range stores {
		s.UpdateView(members)
	}
	return stores
}

func diskStore(t *testing.T) *ckpt.Store {
	t.Helper()
	s, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRestoreBorrowsSafely(t *testing.T) {
	// Each backend is the pair (store the job writes to, store the restarts
	// read from); lost is called between the two with the committed line.
	type backend struct {
		write, read ckpt.Backend
		lost        func(app wire.AppID, line ckpt.RecoveryLine)
		check       func()
	}
	backends := map[string]func(t *testing.T) backend{
		"disk": func(t *testing.T) backend {
			s := diskStore(t)
			return backend{write: s, read: s}
		},
		"rstore-local": func(t *testing.T) backend {
			s := memStores(t, 2)[0]
			return backend{write: s, read: s}
		},
		"rstore-peer": func(t *testing.T) backend {
			// The reader is a member that holds none of the line's images
			// (whatever it was pushed is evicted), so every restore fetches.
			stores := memStores(t, 3)
			reader := stores[2]
			return backend{
				write: stores[0], read: reader,
				lost: func(app wire.AppID, line ckpt.RecoveryLine) {
					for r, n := range line {
						reader.Evict(app, r, n)
					}
				},
				check: func() {
					if reader.Stats().PeerFetches == 0 {
						t.Error("no restore fetched from a peer")
					}
				},
			}
		},
		"tiered": func(t *testing.T) backend {
			tiered := ckpt.NewTiered(memStores(t, 2)[0], diskStore(t), t.Logf)
			t.Cleanup(tiered.Close)
			return backend{write: tiered, read: tiered}
		},
	}
	id := wire.AppID(100)
	for _, enc := range []ckpt.Kind{ckpt.Native, ckpt.Portable} {
		for bname, mk := range backends {
			for _, app := range borrowApps {
				id++
				spec := proc.AppSpec{
					ID: id, Name: "scribbling-" + app.name, Args: app.args, Ranks: 2,
					Protocol: ckpt.StopAndSync, Encoder: enc, CkptEverySteps: 5,
					Policy: proc.PolicyRestart,
				}
				t.Run(fmt.Sprintf("%v/%s/%s", enc, bname, app.name), func(t *testing.T) {
					be := mk(t)
					fn := vni.NewFastnet(0)

					// Run to a committed line, stop, and keep what was Put.
					first := startIncarnation(t, fn, spec, be.write, "w", nil)
					deadline := time.Now().Add(20 * time.Second)
					for {
						if _, err := be.write.CommittedLine(spec.ID); err == nil {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("no line committed")
						}
						time.Sleep(time.Millisecond)
					}
					first.stop()
					line, err := be.write.CommittedLine(spec.ID)
					if err != nil {
						t.Fatal(err)
					}
					put := make(map[wire.Rank][]byte, len(line))
					for r, n := range line {
						img, _, err := be.write.Get(spec.ID, r, n)
						if err != nil {
							t.Fatal(err)
						}
						put[r] = bytes.Clone(img)
					}
					if be.lost != nil {
						be.lost(spec.ID, line)
					}

					// Two incarnations restore from the same slots at once,
					// scribble over what they restored, and run on to the end.
					spec.CkptEverySteps = 0
					a := startIncarnation(t, fn, spec, be.read, "a", line)
					b := startIncarnation(t, fn, spec, be.read, "b", line)
					a.finish()
					b.finish()

					for r, n := range line {
						for side, store := range map[string]ckpt.Backend{"writer": be.write, "reader": be.read} {
							img, _, err := store.Get(spec.ID, r, n)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(img, put[r]) {
								t.Errorf("rank %d #%d: the %s's image changed under the restored applications", r, n, side)
							}
						}
					}
					if be.check != nil {
						be.check()
					}
				})
			}
		}
	}
}
