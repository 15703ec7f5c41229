package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestReaderGuards: a short field fails the reader and later reads are
// zero, a count the rest of the input cannot hold is refused before it
// sizes anything, and Done rejects bytes left over.
func TestReaderGuards(t *testing.T) {
	b := AppendString(AppendString([]byte{7}, "user"), []byte{1, 2})
	r := NewReader(b)
	if r.Byte() != 7 || r.Text() != "user" || !bytes.Equal(r.Bytes(), []byte{1, 2}) || r.Done() != nil {
		t.Fatalf("round trip of %x failed: %v", b, r.Done())
	}

	r = NewReader(b[:len(b)-1])
	r.Byte()
	r.Text()
	if got := r.Bytes(); got != nil || r.Uint64() != 0 || !errors.Is(r.Done(), ErrTruncated) {
		t.Errorf("short field read %x, then %v", got, r.Done())
	}

	r = NewReader([]byte{0, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	if n := r.Count(4); n != 0 || r.Done() == nil {
		t.Errorf("three 4-byte elements in 8 bytes: count %d, %v", n, r.Done())
	}
	r = NewReader([]byte{0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	if n := r.Count(4); n != 2 {
		t.Errorf("two 4-byte elements in 8 bytes: count %d, %v", n, r.Done())
	}

	r = NewReader([]byte{1, 2})
	r.Byte()
	if r.Done() == nil {
		t.Error("a trailing byte must be rejected")
	}
}
