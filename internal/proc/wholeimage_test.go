package proc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"starfish/internal/ckpt"
	"starfish/internal/mpi"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// blobApp's state is an opaque byte string, restored as it was snapshotted.
type blobApp struct{ state []byte }

func init() {
	Register("test-blob", func([]byte) (App, error) { return &blobApp{}, nil })
}

func (a *blobApp) Init(*Ctx) error                    { return nil }
func (a *blobApp) Restore(_ *Ctx, state []byte) error { a.state = bytes.Clone(state); return nil }
func (a *blobApp) Snapshot() ([]byte, error)          { return a.state, nil }
func (a *blobApp) Step(*Ctx) (bool, error)            { return true, nil }

// putCounter is a recording store counting the images handed to Put.
type putCounter struct {
	*recBackend
	puts int
}

func (b *putCounter) Put(app wire.AppID, rank wire.Rank, n uint64, img []byte, meta *ckpt.Meta) error {
	b.puts++
	return b.recBackend.PutRecord(app, rank, n, ckpt.RecordOf(n, nil, nil, nil, img), meta)
}

// TestWholeImageEpochIsOneRecord: into a store that takes no hints, a
// Chandy–Lamport epoch — application state, pending messages and channel
// state — arrives as one record handed to PutRecord, never as an image handed
// to Put, for both encoders. The record resolves to exactly Encoder.Encode of
// the cut, and a restart from it restores the application state and both
// message lists as they were cut. The runtime segment and the state are sized
// so that the message lists straddle a block boundary and one block of the
// state is all-zero.
func TestWholeImageEpochIsOneRecord(t *testing.T) {
	const segment = 3001
	const prefix = 10 + segment + 4 + 4 // image header, segment, state length, app state length
	lists := func(idx uint64) (pending, channel []mpi.RecordedMsg) {
		pending = []mpi.RecordedMsg{
			{Src: 1, Dst: 0, Tag: 5, Interval: idx, Seq: 1, Data: []byte("pending one")},
			{Src: 1, Dst: 0, Tag: 5, Interval: idx, Seq: 2, Data: bytes.Repeat([]byte{7}, 40)},
		}
		channel = []mpi.RecordedMsg{{Src: 1, Dst: 0, Tag: 5, Interval: idx, Seq: 3, Data: []byte("in flight")}}
		return pending, channel
	}
	pending, channel := lists(0)
	listLen := ckptStateSize(nil, pending, channel) - 4
	// The lists begin 50 bytes before the end of the image's third block.
	stateLen := 3*ckpt.DeltaBlockSize - 50 - prefix
	if listLen <= 50 {
		t.Fatalf("lists of %d bytes do not straddle the block boundary", listLen)
	}
	arch := svm.Machines[5]
	for _, kind := range []ckpt.Kind{ckpt.Native, ckpt.Portable} {
		t.Run(kind.String(), func(t *testing.T) {
			var enc ckpt.Encoder = &ckpt.NativeEncoder{RuntimeImageSize: segment}
			if kind == ckpt.Portable {
				enc = &ckpt.PortableEncoder{VMHeaderSize: segment}
			}
			spec := AppSpec{ID: 31, Name: "test-blob", Ranks: 2, Protocol: ckpt.ChandyLamport, Encoder: kind}
			back := &putCounter{recBackend: newRecBackend()}
			app := &blobApp{}
			p := &Process{spec: spec, arch: arch, store: back, app: app, encoder: enc}
			p.cr = newCRModule(p)
			rng := rand.New(rand.NewSource(int64(kind)))
			for idx := uint64(1); idx <= 3; idx++ {
				app.state = make([]byte, stateLen)
				rng.Read(app.state)
				clear(app.state[ckpt.DeltaBlockSize-prefix : 2*ckpt.DeltaBlockSize-prefix]) // the image's second block
				pending, channel := lists(idx)
				c := &cut{pending: pending}
				if err := p.cr.snapshotApp(idx, c); err != nil {
					t.Fatal(err)
				}
				if err := storeEpoch(p.cr, idx, "chandy-lamport", c, channel, &ckpt.Meta{}); err != nil {
					t.Fatal(err)
				}
				if back.puts != 0 || len(back.recs) != int(idx) {
					t.Fatalf("checkpoint %d: %d Puts and %d records, want 0 and %d", idx, back.puts, len(back.recs), idx)
				}
				w := wire.NewWriter(stateLen + listLen + 4)
				w.Bytes32(app.state)
				writeMsgList(w, pending)
				writeMsgList(w, channel)
				want, err := enc.Encode(w.Bytes(), arch)
				if err != nil {
					t.Fatal(err)
				}
				if got, _, err := back.Get(spec.ID, 0, idx); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("checkpoint %d: the record does not resolve to Encode of the cut (err %v)", idx, err)
				}
			}
			snapped := bytes.Clone(app.state)
			pending, channel := lists(3)

			// Restart from the last checkpoint.
			fn := vni.NewFastnet(0)
			r, err := New(Config{
				Spec: spec, Rank: 0, Arch: arch, Store: back,
				Transport: fn, ListenAddr: fmt.Sprintf("whole-image-%s", kind),
			})
			if err != nil {
				t.Fatal(err)
			}
			r.encoder = enc
			defer r.nic.Close()
			si := StartInfo{
				Gen: 2, Size: 2, Addrs: map[wire.Rank]string{0: r.Addr(), 1: "whole-image-gone"},
				NextCkptIndex: 4, Restore: true, RestoreIndex: 3,
			}
			if err := r.initialize(si); err != nil {
				t.Fatal(err)
			}
			defer r.comm.Close()
			if got := r.app.(*blobApp).state; !bytes.Equal(got, snapped) {
				t.Fatal("the restart restored another application state")
			}
			for _, m := range append(pending, channel...) {
				if _, ok := r.comm.Iprobe(1, m.Tag); !ok {
					t.Fatalf("message %d of the cut is not queued after the restart", m.Seq)
				}
				data, _, err := r.comm.Recv(1, m.Tag)
				if err != nil || !bytes.Equal(data, m.Data) {
					t.Fatalf("message %d of the cut restored as %q (err %v)", m.Seq, data, err)
				}
			}
			if _, ok := r.comm.Iprobe(1, 5); ok {
				t.Fatal("the restart queued a message the cut did not have")
			}
		})
	}
}
