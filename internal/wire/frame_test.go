package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// frames encodes v2 frames the way the transport's writer does: each
// header built by AppendFrameHeader, followed by its payload. Frame i
// carries request ID i.
func frames(payloads ...[]byte) *bytes.Buffer {
	var buf bytes.Buffer
	for i, p := range payloads {
		buf.Write(AppendFrameHeader(nil, uint64(i), len(p)))
		buf.Write(p)
	}
	return &buf
}

// TestFrameWriterReaderRoundTrip: what the writer side encodes, the
// reader decodes frame for frame, then reports a clean io.EOF.
func TestFrameWriterReaderRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	fr := NewFrameReader(frames(payloads...))
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ID != uint64(i) || !bytes.Equal(f.Payload, p) {
			t.Errorf("frame %d = %+v", i, f)
		}
		PutBuffer(f.Payload)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

// TestFrameReaderMixedVersions: a length word without the v2 flag is the
// unversioned framing no peer speaks any more (or noise) — outside input
// all the same. Behind a good v2 frame on one stream it is rejected with
// ErrFrameVersion, before anything is read or allocated on its say-so.
func TestFrameReaderMixedVersions(t *testing.T) {
	buf := frames([]byte("v2"))
	buf.Write(append([]byte{0, 0, 0, 6}, "legacy"...))
	fr := NewFrameReader(buf)
	f, err := fr.Next()
	if err != nil || f.ID != 0 || string(f.Payload) != "v2" {
		t.Fatalf("first = %+v, %v", f, err)
	}
	if _, err := fr.Next(); !errors.Is(err, ErrFrameVersion) {
		t.Errorf("unversioned frame: err = %v, want ErrFrameVersion", err)
	}
}

func TestFrameReaderRejectsBadVersion(t *testing.T) {
	raw := frames([]byte("x")).Bytes()
	raw[4] = 9 // corrupt the version byte
	if _, err := NewFrameReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrFrameVersion) {
		t.Errorf("err = %v, want ErrFrameVersion", err)
	}
}

func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	// A corrupt v2 length word above the limit is rejected.
	raw := []byte{0x80 | 0x7f, 0xff, 0xff, 0xff, FrameV2, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := NewFrameReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameReaderTruncatedHeader(t *testing.T) {
	raw := []byte{0x80, 0x00, 0x00, 0x05, FrameV2} // v2 flag but id cut off
	if _, err := NewFrameReader(bytes.NewReader(raw)).Next(); err == nil {
		t.Error("truncated v2 header must error")
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer()
	if len(b) != 0 {
		t.Errorf("pooled buffer has len %d", len(b))
	}
	b = append(b, strings.Repeat("x", 100)...)
	PutBuffer(b)
	hits, misses := poolStats()
	if hits+misses == 0 {
		t.Error("pool stats not counting")
	}
	// Oversized buffers are dropped, not pooled.
	PutBuffer(make([]byte, maxPooledBuffer+1))
}

func TestMessageAppendToMatchesMarshal(t *testing.T) {
	m := &Message{
		Kind: KindRequest, ID: 99, Target: "t@node", Method: "send",
		Meta: map[string]string{"user": "Alice", "b": "2"}, Body: []byte("payload"),
	}
	direct, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Appended behind bytes already in the buffer, the encoding is
	// Marshal's, and the prefix is left alone.
	appended, err := m.AppendTo([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(appended[:6]) != "prefix" || !bytes.Equal(appended[6:], direct) {
		t.Errorf("AppendTo diverges from Marshal\nappended: %x\n  direct: %x", appended, direct)
	}
	back, err := UnmarshalMessage(direct)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != m.ID || back.Method != m.Method || back.Target != m.Target ||
		string(back.Body) != string(m.Body) || back.Meta["user"] != "Alice" {
		t.Errorf("round trip = %+v", back)
	}
}
