package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortBuffer is returned by Reader when a decode runs past the end of
// the underlying buffer.
var ErrShortBuffer = errors.New("wire: short buffer")

// Writer builds structured binary payloads with a sticky error, so protocol
// code can chain puts without per-call error checks. All integers are
// big-endian; this is the canonical encoding for payloads that cross nodes.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// NewWriterOn returns a Writer that encodes into buf's storage from its
// start, for a caller that sized buf for the whole payload: while the
// encoding fits cap(buf) it is written in place, with no allocation.
func NewWriterOn(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v uint8) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// I32 appends a big-endian int32.
func (w *Writer) I32(v int32) *Writer { return w.U32(uint32(v)) }

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) *Writer { return w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) *Writer { return w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) *Writer {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// Bytes32 appends a uint32 length prefix followed by b.
func (w *Writer) Bytes32(b []byte) *Writer {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) *Writer {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// U32Slice appends a count followed by each element.
func (w *Writer) U32Slice(vs []uint32) *Writer {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(v)
	}
	return w
}

// U64Slice appends a count followed by each element.
func (w *Writer) U64Slice(vs []uint64) *Writer {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
	return w
}

// Reader decodes structured binary payloads produced by Writer. The first
// decoding failure sets a sticky error; subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky error, or nil if all reads succeeded so far.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShortBuffer
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a uint32-length-prefixed byte slice. The result aliases the
// underlying buffer.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(r.Remaining()) {
		r.err = ErrShortBuffer
		return nil
	}
	return r.take(int(n))
}

// String reads a uint32-length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// Count reads a uint32 element count for elements that take at least size
// bytes each. A count that cannot fit in the bytes left sets ErrShortBuffer
// and reads as 0, so a decoder may size an allocation by it: a peer's frame
// cannot ask for more memory than it carries.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(size) > uint64(r.Remaining()) {
		r.err = ErrShortBuffer
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// U32Slice reads a count-prefixed []uint32.
func (r *Reader) U32Slice() []uint32 {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = r.U32()
	}
	return vs
}

// U64Slice reads a count-prefixed []uint64.
func (r *Reader) U64Slice() []uint64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}
