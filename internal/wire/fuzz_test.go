package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeValue throws arbitrary bytes at the value decoder: it must
// never panic or blow the stack, and every value it does accept must
// re-encode to an equivalent decodable form.
func FuzzDecodeValue(f *testing.F) {
	seedValues := []any{
		nil, true, int64(-7), 3.14, "hello", []byte{1, 2, 3},
		[]any{int64(1), "two", []any{nil}},
		map[string]any{"k": "v", "n": []any{int64(9)}},
	}
	for _, v := range seedValues {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(deeplyNestedList(200))
	f.Add([]byte{tagList, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return
		}
		re, err := appendValue(nil, v, 0)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		// Re-encoding must reproduce the consumed prefix: maps encode
		// sorted, and the decoder only accepts sorted input via Marshal,
		// but arbitrary input may have unsorted maps — so only require
		// that the re-encoding decodes back equal in length terms.
		v2, rest2, err := DecodeValue(re)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoded value left %d bytes", len(rest2))
		}
		_ = v2
		_ = rest
	})
}

// FuzzUnmarshalMessage throws arbitrary bytes at the message decoder:
// it must never panic, and every message it accepts must round-trip
// through Marshal.
func FuzzUnmarshalMessage(f *testing.F) {
	seeds := []*Message{
		{Kind: KindRequest, ID: 1, Method: "echo", Body: []byte("hi")},
		{Kind: KindResponse, ID: 2, Target: "t@n", Meta: map[string]string{"a": "b"}},
		{Kind: KindError, Meta: map[string]string{"error": "boom"}},
		{Kind: KindRequest, ID: 3, Method: "send", TraceID: 7, SpanID: 9},
	}
	for _, m := range seeds {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{tagMap, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMessage(data)
		if err != nil {
			return
		}
		re, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message does not re-marshal: %v", err)
		}
		if n := m.EncodedLen(); n != len(re) || cap(re) != len(re) {
			t.Fatalf("EncodedLen = %d, Marshal returned len %d cap %d", n, len(re), cap(re))
		}
		m2, err := UnmarshalMessage(re)
		if err != nil {
			t.Fatalf("re-marshaled message does not decode: %v", err)
		}
		if m2.Kind != m.Kind || m2.ID != m.ID || m2.Target != m.Target ||
			m2.Method != m.Method || !bytes.Equal(m2.Body, m.Body) ||
			m2.TraceID != m.TraceID || m2.SpanID != m.SpanID {
			t.Fatalf("round trip changed message: %+v vs %+v", m, m2)
		}
	})
}
