// Golden fixture for poolcheck: the wire.BufPool ownership discipline.
package fixture

import (
	"errors"
	"io"

	"starfish/internal/ckpt"
	"starfish/internal/mpi"
	"starfish/internal/wire"
)

var errBoom = errors.New("boom")

// ---- violations ----

func leakOnErrorReturn(fail bool) error {
	b := wire.GetBuf(64) // want "leaks on the return"
	if fail {
		return errBoom
	}
	wire.PutBuf(b)
	return nil
}

func leakFallOffEnd() {
	b := wire.GetBuf(64) // want "leaks on the return"
	b[0] = 1
}

func doubleRelease() {
	b := wire.GetBuf(64)
	wire.PutBuf(b)
	wire.PutBuf(b) // want "double release"
}

func useAfterRelease() byte {
	b := wire.GetBuf(64)
	wire.PutBuf(b)
	return b[0] // want "after release"
}

func discardAcquire() {
	wire.GetBuf(8) // want "discarded"
}

func discardToBlank() {
	_ = wire.GetBuf(8) // want "discarded"
}

func releaseUnderDefer() {
	b := wire.GetBuf(64)
	defer wire.PutBuf(b)
	wire.PutBuf(b) // want "deferred release already covers"
}

func useAfterOwnedSend(c *mpi.Comm, to wire.Rank) byte {
	b := wire.GetBuf(64)
	if err := c.SendOwned(to, 1, b); err != nil {
		return 0
	}
	// SendOwned consumes the buffer even on success — this read races the
	// receiver.
	return b[0] // want "after release"
}

func payloadAfterRelease(r io.Reader) int {
	m, _ := wire.ReadMsgBuf(r)
	m.Release()
	return len(m.Payload) // want "after release"
}

// readAfterPutRecord reads a checkpoint record after a backend took it over:
// a replicated backend may collect and recycle it as soon as PutRecord
// returns.
func readAfterPutRecord(be ckpt.Backend, img []byte, where []uint64) []uint64 {
	rec := ckpt.RecordOf(1, nil, nil, nil, img)
	if err := be.PutRecord(1, 0, 1, rec, nil); err != nil {
		return nil
	}
	return ckpt.CarryList(rec, where) // want "after release"
}

func recordLeaks(img []byte, stop bool) error {
	rec := ckpt.RecordOf(1, nil, nil, nil, img) // want "leaks on the return"
	if stop {
		return errBoom
	}
	wire.PutBuf(rec)
	return nil
}

// ---- interprocedural: helpers wrapping the pool API ----

// freeFrame is a release helper: its summary says the parameter is
// released, so calls to it count as release sites.
func freeFrame(b []byte) {
	wire.PutBuf(b)
}

// getFrame is an acquire helper: every return yields a fresh pooled
// buffer, so its callers own the result.
func getFrame(n int) []byte {
	return wire.GetBuf(n + 8)
}

func helperDoubleRelease() {
	b := wire.GetBuf(64)
	freeFrame(b)
	wire.PutBuf(b) // want "double release"
}

func helperAcquireLeaks(fail bool) error {
	b := getFrame(64) // want "leaks on the return"
	if fail {
		return errBoom
	}
	wire.PutBuf(b)
	return nil
}

func helperAcquireDiscarded() {
	getFrame(8) // want "discarded"
}

func useAfterHelperRelease() byte {
	b := wire.GetBuf(64)
	freeFrame(b)
	return b[0] // want "after release"
}

// ---- compliant ----

// readBeforePutRecord reads what it needs of the record before handing it
// over, as a rank's capture worker does.
func readBeforePutRecord(be ckpt.Backend, img []byte, where []uint64) ([]uint64, error) {
	rec := ckpt.RecordOf(1, nil, nil, nil, img)
	where = ckpt.CarryList(rec, where)
	return where, be.PutRecord(1, 0, 1, rec, nil)
}

func balancedBranches(fail bool) error {
	b := wire.GetBuf(64)
	if fail {
		wire.PutBuf(b)
		return errBoom
	}
	wire.PutBuf(b)
	return nil
}

func deferredRelease() {
	b := wire.GetBuf(64)
	defer wire.PutBuf(b)
	b[0] = 1
}

func ownershipTransfer(c *mpi.Comm, to wire.Rank) error {
	b := wire.GetBuf(64)
	// SendOwned takes ownership even when it returns an error: no release
	// needed on either path.
	return c.SendOwned(to, 1, b)
}

func helperBalanced(fail bool) error {
	b := getFrame(64)
	if fail {
		freeFrame(b)
		return errBoom
	}
	wire.PutBuf(b)
	return nil
}

func helperDeferredRelease() {
	b := getFrame(64)
	defer freeFrame(b)
	b[0] = 1
}

func selfSliceKeepsOwnership(n int) {
	b := wire.GetBuf(64)
	b = b[:n]
	wire.PutBuf(b)
}

func msgReleaseIdempotent(r io.Reader) {
	m, _ := wire.ReadMsgBuf(r)
	m.Release()
	m.Release() // Msg.Release is documented idempotent: not a double release
}

func readsOnly(b []byte) int { return len(b) }

func retains(b []byte) { sink = b }

var sink []byte

func escapeEndsTracking() {
	b := wire.GetBuf(64)
	// The callee stores its argument; ownership may have moved, so
	// tracking ends conservatively and nothing is reported.
	retains(b)
}

func readCalleeKeepsTracking() {
	b := wire.GetBuf(64) // want "leaks on the return"
	// Interprocedural: readsOnly is summarized as read-only, so the buffer
	// is still owned here — and leaks. The per-function engine missed this.
	_ = readsOnly(b)
}

func allowedLeak(fail bool) error {
	//starfish:allow poolcheck fixture demonstrates the escape hatch for an intentional drop
	b := wire.GetBuf(64)
	if fail {
		return errBoom
	}
	wire.PutBuf(b)
	return nil
}
