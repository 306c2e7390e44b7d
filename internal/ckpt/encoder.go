// Package ckpt implements Starfish's checkpoint/restart machinery: the two
// checkpoint encoders (native process-level and portable VM-level), the
// on-disk checkpoint store, dependency tracking for uncoordinated
// checkpointing, and recovery-line computation.
//
// The distributed C/R protocols themselves (stop-and-sync, Chandy–Lamport,
// independent checkpointing) are driven by the C/R module of each
// application process (internal/proc) using the message kinds defined here;
// this package holds everything that is protocol-state-free.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"starfish/internal/svm"
	"starfish/internal/wire"
)

// Kind selects a checkpoint encoder.
type Kind uint8

// Checkpoint kinds (§3.2.2 of the paper).
const (
	// Native is process-level (homogeneous) checkpointing: the dump
	// contains the whole runtime image — data, stack and heap segments of
	// the process, including the virtual machine's own state — and can
	// only be restored on an identical architecture.
	Native Kind = iota + 1
	// Portable is VM-level (heterogeneous) checkpointing: only the
	// virtual machine's *program* state is saved, in the checkpointing
	// machine's native representation with a representation tag, and it
	// is converted on restart (§4, [2]).
	Portable
)

func (k Kind) String() string {
	switch k {
	case Native:
		return "native"
	case Portable:
		return "portable"
	default:
		return fmt.Sprintf("ckpt.Kind(%d)", uint8(k))
	}
}

// Paper-measured empty-program checkpoint sizes (§5): the native dump of an
// empty program is 632 KB (it contains the run-time system's data, stack
// and heap plus the VM), while the VM-level dump is 260 KB. The encoders
// model those fixed runtime images with real bytes so that checkpoint-size
// and checkpoint-time measurements include them, preserving the paper's
// size relationship between figures 3 and 4.
const (
	// DefaultNativeRuntimeSize is the simulated process-level runtime
	// image (data+stack+heap segments of the run-time system, VM
	// included).
	DefaultNativeRuntimeSize = 632 << 10
	// DefaultVMHeaderSize is the simulated VM-level bookkeeping saved
	// with a portable dump (channel tables, module state — but not the
	// VM internals, which is why it is smaller).
	DefaultVMHeaderSize = 260 << 10
)

// Encoding/decoding errors.
var (
	ErrArchMismatch = errors.New("ckpt: native checkpoint taken on a different architecture")
	ErrBadImage     = errors.New("ckpt: malformed checkpoint image")
	ErrKindMismatch = errors.New("ckpt: image was written by a different encoder kind")
)

// Encoder turns application state bytes into a checkpoint image and back.
// The state bytes are opaque here: for SVM apps they are an svm image (the
// portable path converts representations by construction); for Go-native
// apps they are whatever the application's Marshal produced.
type Encoder interface {
	Kind() Kind
	// Encode wraps state into a checkpoint image taken on arch.
	Encode(state []byte, arch svm.Arch) ([]byte, error)
	// Prefix returns, in parts, what an image taken on arch has ahead of its
	// stateLen-byte state: the one place an encoder lays out its image.
	// NewImage writes it into an image; a caller that writes the image
	// straight into a record hands it to RecordOf. The parts are
	// read-only: the runtime segment is shared by every image.
	Prefix(arch svm.Arch, stateLen int) [][]byte
	// Decode unwraps a checkpoint image for restoration on arch,
	// returning the state bytes. Native images refuse foreign
	// architectures; portable images convert. The state is a view into
	// img, not a copy: it is as read-only as the image Backend.Get handed
	// out, and whoever keeps any of it past the restore copies that part.
	Decode(img []byte, arch svm.Arch) ([]byte, error)
	// Overhead is the fixed image size of an empty program (the §5
	// checkpoint-size floor).
	Overhead() int
}

const (
	imgMagicNative   = 0xC0DE0001
	imgMagicPortable = 0xC0DE0002
)

// runtimeSegs caches the simulated runtime segments, segKey -> []byte: the
// bytes are a pure function of the key, and every epoch of every rank
// embeds one.
var runtimeSegs sync.Map

type segKey struct {
	mult uint32
	size int
}

// runtimeSegment returns size bytes of the deterministic fill byte(i*mult).
// A real core dump is not zeros, and a non-trivial pattern keeps the I/O
// path honest (no sparse-file or zero-page shortcuts). Read-only.
func runtimeSegment(mult uint32, size int) []byte {
	k := segKey{mult, size}
	seg, ok := runtimeSegs.Load(k)
	if !ok {
		fill := make([]byte, size)
		for i := range fill {
			fill[i] = byte(uint32(i) * mult)
		}
		seg, _ = runtimeSegs.LoadOrStore(k, fill)
	}
	return seg.([]byte)
}

// imagePrefix lays out what a checkpoint image has ahead of its state: magic,
// architecture tag, length-prefixed runtime segment, the state's length.
func imagePrefix(magic uint32, runtime []byte, arch svm.Arch, stateLen int) [][]byte {
	head := make([]byte, 14)
	binary.BigEndian.PutUint32(head, magic)
	head[4], head[5] = uint8(arch.Order), uint8(arch.WordBits)
	binary.BigEndian.PutUint32(head[6:], uint32(len(runtime)))
	binary.BigEndian.PutUint32(head[10:], uint32(stateLen))
	return [][]byte{head[:10], runtime, head[10:]}
}

// NewImage is Encode for a caller that assembles the state itself: it returns
// an exactly-sized image e takes on arch with everything but the state written
// (e's Prefix), and the stateLen-byte window of img the caller fills.
func NewImage(e Encoder, arch svm.Arch, stateLen int) (img, state []byte) {
	prefix := e.Prefix(arch, stateLen)
	n := stateLen
	for _, p := range prefix {
		n += len(p)
	}
	img = make([]byte, n)
	off := 0
	for _, p := range prefix {
		off += copy(img[off:], p)
	}
	return img, img[off:]
}

// NativeEncoder is the homogeneous, process-level encoder.
type NativeEncoder struct {
	// RuntimeImageSize is the size of the simulated runtime segments
	// included in every dump; defaults to DefaultNativeRuntimeSize.
	RuntimeImageSize int
}

// Kind implements Encoder.
func (e *NativeEncoder) Kind() Kind { return Native }

// Overhead implements Encoder.
func (e *NativeEncoder) Overhead() int {
	if e.RuntimeImageSize > 0 {
		return e.RuntimeImageSize
	}
	return DefaultNativeRuntimeSize
}

// Encode implements Encoder. The image embeds the architecture tag, the
// simulated runtime segments, and the raw state.
func (e *NativeEncoder) Encode(state []byte, arch svm.Arch) ([]byte, error) {
	img, dst := NewImage(e, arch, len(state))
	copy(dst, state)
	return img, nil
}

// Prefix implements Encoder.
func (e *NativeEncoder) Prefix(arch svm.Arch, stateLen int) [][]byte {
	return imagePrefix(imgMagicNative, runtimeSegment(2654435761, e.Overhead()), arch, stateLen)
}

// Decode implements Encoder.
func (e *NativeEncoder) Decode(img []byte, arch svm.Arch) ([]byte, error) {
	r := wire.NewReader(img)
	magic := r.U32()
	order, bits := svm.Endian(r.U8()), int(r.U8())
	r.Bytes32() // simulated runtime segments, discarded on restore
	state := r.Bytes32()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, ErrBadImage
	}
	if magic == imgMagicPortable {
		return nil, ErrKindMismatch
	}
	if magic != imgMagicNative {
		return nil, ErrBadImage
	}
	if order != arch.Order || bits != arch.WordBits {
		return nil, fmt.Errorf("%w: image %s/%d-bit, host %s/%d-bit",
			ErrArchMismatch, order, bits, arch.Order, arch.WordBits)
	}
	return state, nil
}

// PortableEncoder is the heterogeneous, VM-level encoder.
type PortableEncoder struct {
	// VMHeaderSize is the size of the simulated VM-level bookkeeping;
	// defaults to DefaultVMHeaderSize.
	VMHeaderSize int
}

// Kind implements Encoder.
func (e *PortableEncoder) Kind() Kind { return Portable }

// Overhead implements Encoder.
func (e *PortableEncoder) Overhead() int {
	if e.VMHeaderSize > 0 {
		return e.VMHeaderSize
	}
	return DefaultVMHeaderSize
}

// Encode implements Encoder. State is stored as-is: for SVM apps it is
// already in the machine's native representation with its own tag, which
// is what makes the portable path heterogeneous.
func (e *PortableEncoder) Encode(state []byte, arch svm.Arch) ([]byte, error) {
	img, dst := NewImage(e, arch, len(state))
	copy(dst, state)
	return img, nil
}

// Prefix implements Encoder.
func (e *PortableEncoder) Prefix(arch svm.Arch, stateLen int) [][]byte {
	return imagePrefix(imgMagicPortable, runtimeSegment(40503, e.Overhead()), arch, stateLen)
}

// Decode implements Encoder. Any architecture may restore a portable image;
// representation conversion of the embedded state happens in the layer that
// understands it (svm.DecodeImage for VM apps).
func (e *PortableEncoder) Decode(img []byte, arch svm.Arch) ([]byte, error) {
	r := wire.NewReader(img)
	magic := r.U32()
	r.U8()      // origin order (informational)
	r.U8()      // origin word bits
	r.Bytes32() // VM-level header, consumed by svm.DecodeImage when needed
	state := r.Bytes32()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, ErrBadImage
	}
	if magic == imgMagicNative {
		return nil, ErrKindMismatch
	}
	if magic != imgMagicPortable {
		return nil, ErrBadImage
	}
	return state, nil
}

// ImageOrigin reports the architecture representation an image was taken
// on, for either encoder kind.
func ImageOrigin(img []byte) (svm.Arch, Kind, error) {
	r := wire.NewReader(img)
	magic := r.U32()
	order, bits := svm.Endian(r.U8()), int(r.U8())
	if r.Err() != nil {
		return svm.Arch{}, 0, ErrBadImage
	}
	var k Kind
	switch magic {
	case imgMagicNative:
		k = Native
	case imgMagicPortable:
		k = Portable
	default:
		return svm.Arch{}, 0, ErrBadImage
	}
	return svm.Arch{Name: "image-origin", Order: order, WordBits: bits}, k, nil
}
