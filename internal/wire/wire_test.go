package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", v, err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", v, err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []any{
		nil, true, false,
		int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, 3.14159, math.Inf(1), math.Inf(-1),
		"", "hello", "unicode: héllo – 日本",
		[]byte{}, []byte{0, 1, 2, 255},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestIntsNormalizeToInt64(t *testing.T) {
	if got := roundTrip(t, 42); got != int64(42) {
		t.Errorf("int -> %#v", got)
	}
	if got := roundTrip(t, int32(-7)); got != int64(-7) {
		t.Errorf("int32 -> %#v", got)
	}
}

func TestNaNRoundTrips(t *testing.T) {
	got := roundTrip(t, math.NaN())
	f, ok := got.(float64)
	if !ok || !math.IsNaN(f) {
		t.Errorf("NaN -> %#v", got)
	}
}

func TestCompositeRoundTrips(t *testing.T) {
	v := map[string]any{
		"list":   []any{int64(1), "two", 3.0, nil, true},
		"nested": map[string]any{"a": []byte{9}, "b": []any{}},
		"empty":  map[string]any{},
	}
	got := roundTrip(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("composite round trip:\n got %#v\nwant %#v", got, v)
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	v := map[string]any{"z": int64(1), "a": int64(2), "m": int64(3)}
	a, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(map[string]any{"m": int64(3), "z": int64(1), "a": int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("map encoding must be key-sorted and deterministic")
	}
}

func TestUnsupportedTypeErrors(t *testing.T) {
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("struct must be rejected")
	}
	if _, err := Marshal([]any{make(chan int)}); err == nil {
		t.Error("nested unsupported type must be rejected")
	}
	if _, err := Marshal(map[string]any{"k": uint64(1)}); err == nil {
		t.Error("uint64 is unsupported and must be rejected")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"bad tag":          {0x7f},
		"truncated int":    {tagInt, 1, 2},
		"truncated string": {tagString, 0, 0, 0, 9, 'h', 'i'},
		"bad bool":         {tagBool, 2},
		"short list count": {tagList, 0, 0},
		"list item trunc":  {tagList, 0, 0, 0, 1},
		"map non-string":   {tagMap, 0, 0, 0, 1, tagInt, 0, 0, 0, 0, 0, 0, 0, 1, tagNil},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// Trailing garbage after a valid value.
	data, _ := Marshal(int64(1))
	if _, err := Unmarshal(append(data, 0xff)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// The last payload is larger than the reader's buffer.
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 100000)}
	fr := NewFrameReader(frames(payloads...))
	for i, want := range payloads {
		got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != uint64(i) || !bytes.Equal(got.Payload, want) {
			t.Errorf("frame %d mismatch: id %d, %d vs %d bytes", i, got.ID, len(got.Payload), len(want))
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Error("exhausted reader must return an error")
	}
}

func TestFrameTooLarge(t *testing.T) {
	// One byte over the limit is over the limit: the length word is
	// rejected before any payload is read or allocated.
	raw := AppendFrameHeader(nil, 1, MaxFrame+1)
	if _, err := NewFrameReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	ok := AppendFrameHeader(nil, 1, MaxFrame)
	if _, err := NewFrameReader(bytes.NewReader(ok)).Next(); errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("a frame of exactly MaxFrame bytes is within the limit: %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Kind:   KindRequest,
		ID:     42,
		Target: "ViewMailServer@sd-2",
		Method: "send",
		Meta:   map[string]string{"user": "Alice", "sensitivity": "3"},
		Body:   []byte("encrypted-payload"),
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("message round trip:\n got %#v\nwant %#v", got, m)
	}
}

func TestMessageMinimal(t *testing.T) {
	m := &Message{Kind: KindResponse}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindResponse || got.Meta != nil || got.Body != nil {
		t.Errorf("minimal message = %#v", got)
	}
}

func TestUnmarshalMessageErrors(t *testing.T) {
	if _, err := UnmarshalMessage([]byte{0x7f}); err == nil {
		t.Error("garbage must fail")
	}
	data, _ := Marshal(int64(1))
	if _, err := UnmarshalMessage(data); err == nil {
		t.Error("non-map must fail")
	}
	data, _ = Marshal(map[string]any{"id": int64(1)})
	if _, err := UnmarshalMessage(data); err == nil {
		t.Error("missing kind must fail")
	}
	data, _ = Marshal(map[string]any{"kind": int64(1), "meta": map[string]any{"k": int64(5)}})
	if _, err := UnmarshalMessage(data); err == nil {
		t.Error("non-string meta must fail")
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		KindRequest: "request", KindResponse: "response", KindError: "error",
		KindInstall: "install", KindCoherence: "coherence", MsgKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d) = %q, want %q", k, got, want)
		}
	}
}

// randomWireValue builds an arbitrary encodable value with bounded depth.
func randomWireValue(r *rand.Rand, depth int) any {
	n := 6
	if depth > 0 {
		n = 8
	}
	switch r.Intn(n) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return int64(r.Uint64())
	case 3:
		return r.NormFloat64()
	case 4:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return string(b)
	case 5:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return b
	case 6:
		out := make([]any, r.Intn(4))
		for i := range out {
			out[i] = randomWireValue(r, depth-1)
		}
		return out
	default:
		out := make(map[string]any, 3)
		for i := 0; i < r.Intn(4); i++ {
			out[string(rune('a'+i))] = randomWireValue(r, depth-1)
		}
		return out
	}
}

type wireGen struct{ V any }

// Generate implements quick.Generator.
func (wireGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(wireGen{V: randomWireValue(r, 3)})
}

// TestQuickRoundTrip: arbitrary values survive encode/decode.
func TestQuickRoundTrip(t *testing.T) {
	f := func(g wireGen) bool {
		data, err := Marshal(g.V)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		// NaN breaks DeepEqual; re-encode instead: deterministic
		// encoding means equal values encode identically.
		data2, err := Marshal(got)
		return err == nil && bytes.Equal(data, data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics: random bytes must error, not panic.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
