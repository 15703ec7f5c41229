package wire

import (
	"errors"
	"strings"
	"testing"
)

// deeplyNestedList encodes n nested single-element lists around an int.
func deeplyNestedList(n int) []byte {
	buf := make([]byte, 0, 5*n+9)
	for i := 0; i < n; i++ {
		buf = append(buf, tagList, 0, 0, 0, 1)
	}
	return append(buf, tagInt, 0, 0, 0, 0, 0, 0, 0, 42)
}

func TestDecodeValueDepthGuard(t *testing.T) {
	if _, _, err := DecodeValue(deeplyNestedList(MaxDepth - 1)); err != nil {
		t.Errorf("nesting below the limit must decode: %v", err)
	}
	// A frame nested 100k deep must fail cleanly, not blow the stack.
	if _, _, err := DecodeValue(deeplyNestedList(100000)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("err = %v, want ErrTooDeep", err)
	}
}

func TestAppendValueDepthGuard(t *testing.T) {
	v := any(int64(1))
	for i := 0; i < MaxDepth+2; i++ {
		v = []any{v}
	}
	if _, err := appendValue(nil, v, 0); !errors.Is(err, ErrTooDeep) {
		t.Errorf("err = %v, want ErrTooDeep", err)
	}
}

func TestDepthGuardRoundTripAtLimit(t *testing.T) {
	v := any(int64(7))
	for i := 0; i < MaxDepth-2; i++ {
		v = []any{v}
	}
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Errorf("round trip at depth limit: %v", err)
	}
}

func TestAppendValueLengthGuard(t *testing.T) {
	// A >4 GiB value cannot be built in a unit test, so the overflow
	// branch itself is covered by code inspection; what must hold here
	// is that values well within the u32 prefix still encode and that
	// the guard did not change small-value behaviour.
	if _, err := appendValue(nil, string(make([]byte, 1<<16)), 0); err != nil {
		t.Errorf("64 KiB string must encode: %v", err)
	}
	if _, err := appendValue(nil, make([]byte, 1<<16), 0); err != nil {
		t.Errorf("64 KiB bytes must encode: %v", err)
	}
}

func TestMessageAppendToLengthGuard(t *testing.T) {
	// Message.AppendTo guards every u32-prefixed field (body, target,
	// method, meta keys and values), not just the body. As above, a
	// >4 GiB field cannot be built in a unit test, so the overflow
	// branches are covered by inspection of checkLengths; what must
	// hold here is that large-but-legal fields still encode.
	m := &Message{
		Kind:   KindRequest,
		Target: strings.Repeat("t", 1<<16),
		Method: strings.Repeat("m", 1<<16),
		Meta:   map[string]string{strings.Repeat("k", 1<<12): strings.Repeat("v", 1<<16)},
		Body:   make([]byte, 1<<16),
	}
	data, err := m.AppendTo(nil)
	if err != nil {
		t.Fatalf("64 KiB fields must encode: %v", err)
	}
	if _, err := UnmarshalMessage(data); err != nil {
		t.Errorf("round trip: %v", err)
	}
}
