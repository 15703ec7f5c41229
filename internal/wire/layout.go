package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Typed layouts: a body whose fields are written in a fixed order with
// no tags or keys. Integers are big endian; a string or byte field is a
// u32 length and its bytes; a list is a u32 count and its elements.

// AppendString appends s as a u32 length followed by its bytes.
func AppendString[T string | []byte](b []byte, s T) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// Reader reads a typed layout front to back. The first read that runs
// past the end fails the reader, and every later read returns a zero
// value, so a decoder reads its whole layout and checks once, with Done.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

var zeros [8]byte

// next returns the next n bytes; fixed-size fields read as zeros once
// the reader has failed.
func (r *Reader) next(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.data)) {
		r.err = ErrTruncated
	}
	if r.err != nil {
		return zeros[:min(max(n, 0), len(zeros))]
	}
	p := r.data[:n:n]
	r.data = r.data[n:]
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte { return r.next(1)[0] }

// Uint64 reads a big-endian u64.
func (r *Reader) Uint64() uint64 { return binary.BigEndian.Uint64(r.next(8)) }

// Float64 reads an IEEE 754 float64 written as a big-endian u64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes reads a length-prefixed field. The result shares the input's
// memory: a caller that keeps it past the input copies it.
func (r *Reader) Bytes() []byte {
	if p := r.next(int(binary.BigEndian.Uint32(r.next(4)))); r.err == nil {
		return p
	}
	return nil
}

// Text reads a length-prefixed field as a string, which is a copy.
func (r *Reader) Text() string { return string(r.Bytes()) }

// Count reads a u32 element count. A count the rest of the input cannot
// hold at minSize bytes an element fails the reader, so a hostile count
// never sizes an allocation beyond what the input could fill.
func (r *Reader) Count(minSize int) int {
	n := int(binary.BigEndian.Uint32(r.next(4)))
	if r.err == nil && (n < 0 || n > len(r.data)/minSize) {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", n, len(r.data)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Fail records err unless the reader has already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the reader's error, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes after value", len(r.data))
	}
	return r.err
}
