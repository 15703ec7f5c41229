// Package wire implements the framework's binary wire format: length-
// prefixed frames, each carrying one Message, the custom serialization
// layer that stands in for Java RMI (see DESIGN.md, substitution
// table). A Message's body is opaque here. Services give each method
// a fixed typed layout, written with AppendString and the big-endian
// appenders of encoding/binary and read back with a Reader (the mail
// protocol, DESIGN.md §5i); free-form control-plane bodies, such as
// install orders, use the tagged value encoding below.
//
// The value encoding is a compact tagged union:
//
//	nil     0x00
//	bool    0x01 <0|1>
//	int64   0x02 <8 bytes big endian>
//	float64 0x03 <8 bytes IEEE 754 big endian>
//	string  0x04 <u32 len> <bytes>
//	bytes   0x05 <u32 len> <bytes>
//	list    0x06 <u32 count> <values...>
//	map     0x07 <u32 count> <string value, value>... (sorted by key)
//
// Maps encode sorted by key, so encoding is deterministic: equal values
// produce equal bytes, which the coherence layer relies on for change
// detection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Value type tags.
const (
	tagNil    = 0x00
	tagBool   = 0x01
	tagInt    = 0x02
	tagFloat  = 0x03
	tagString = 0x04
	tagBytes  = 0x05
	tagList   = 0x06
	tagMap    = 0x07
)

// MaxFrame is the largest frame a FrameReader accepts: a guard
// against corrupt length prefixes allocating unbounded memory.
const MaxFrame = 16 << 20

// MaxDepth bounds value nesting on both encode and decode: a hostile
// frame of deeply nested lists must not blow the stack.
const MaxDepth = 64

// ErrFrameTooLarge reports a frame length prefix above the limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports an encoding that ends mid-value.
var ErrTruncated = errors.New("wire: truncated value")

// ErrTooDeep reports value nesting beyond MaxDepth.
var ErrTooDeep = errors.New("wire: value nesting exceeds depth limit")

// ErrTooLong reports a string, byte slice, list, or map whose length
// does not fit the u32 length prefix (it would silently truncate on the
// wire otherwise).
var ErrTooLong = errors.New("wire: value length overflows u32 prefix")

// appendValue appends the encoding of v to buf. Supported types: nil,
// bool, int/int32/int64, float64, string, []byte, []any, and
// map[string]any (recursively, at most MaxDepth deep). Unsupported
// types and lengths beyond the u32 prefix return an error.
func appendValue(buf []byte, v any, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, tagBool, b), nil
	case int:
		return appendInt(buf, int64(x)), nil
	case int32:
		return appendInt(buf, int64(x)), nil
	case int64:
		return appendInt(buf, x), nil
	case float64:
		buf = append(buf, tagFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: string of %d bytes", ErrTooLong, len(x))
		}
		buf = append(buf, tagString)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
		return append(buf, x...), nil
	case []byte:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: byte slice of %d bytes", ErrTooLong, len(x))
		}
		buf = append(buf, tagBytes)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
		return append(buf, x...), nil
	case []any:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: list of %d items", ErrTooLong, len(x))
		}
		buf = append(buf, tagList)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
		var err error
		for _, item := range x {
			if buf, err = appendValue(buf, item, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case map[string]any:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: map of %d entries", ErrTooLong, len(x))
		}
		buf = append(buf, tagMap)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var err error
		for _, k := range keys {
			if buf, err = appendValue(buf, k, depth+1); err != nil {
				return nil, err
			}
			if buf, err = appendValue(buf, x[k], depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("wire: unsupported type %T", v)
	}
}

func appendInt(buf []byte, x int64) []byte {
	buf = append(buf, tagInt)
	return binary.BigEndian.AppendUint64(buf, uint64(x))
}

// DecodeValue decodes one value from data, returning it and the
// remaining bytes. Strings and byte slices are copied, so the result
// does not alias data. Nesting beyond MaxDepth is rejected with
// ErrTooDeep, bounding stack use on hostile input.
func DecodeValue(data []byte) (v any, rest []byte, err error) {
	return decodeValue(data, 0)
}

func decodeValue(data []byte, depth int) (v any, rest []byte, err error) {
	if depth > MaxDepth {
		return nil, nil, ErrTooDeep
	}
	if len(data) == 0 {
		return nil, nil, ErrTruncated
	}
	tag, data := data[0], data[1:]
	switch tag {
	case tagNil:
		return nil, data, nil
	case tagBool:
		if len(data) < 1 {
			return nil, nil, ErrTruncated
		}
		switch data[0] {
		case 0:
			return false, data[1:], nil
		case 1:
			return true, data[1:], nil
		default:
			return nil, nil, fmt.Errorf("wire: invalid bool byte %#x", data[0])
		}
	case tagInt:
		if len(data) < 8 {
			return nil, nil, ErrTruncated
		}
		return int64(binary.BigEndian.Uint64(data)), data[8:], nil
	case tagFloat:
		if len(data) < 8 {
			return nil, nil, ErrTruncated
		}
		return math.Float64frombits(binary.BigEndian.Uint64(data)), data[8:], nil
	case tagString, tagBytes:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < n {
			return nil, nil, ErrTruncated
		}
		if tag == tagString {
			return string(data[:n]), data[n:], nil
		}
		payload := make([]byte, n)
		copy(payload, data[:n])
		return payload, data[n:], nil
	case tagList:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(data)
		data = data[4:]
		out := make([]any, 0, min(int(n), 1024))
		for i := uint32(0); i < n; i++ {
			var item any
			item, data, err = decodeValue(data, depth+1)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, item)
		}
		return out, data, nil
	case tagMap:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(data)
		data = data[4:]
		out := make(map[string]any, min(int(n), 1024))
		for i := uint32(0); i < n; i++ {
			var kv, vv any
			kv, data, err = decodeValue(data, depth+1)
			if err != nil {
				return nil, nil, err
			}
			key, ok := kv.(string)
			if !ok {
				return nil, nil, fmt.Errorf("wire: map key has type %T, want string", kv)
			}
			vv, data, err = decodeValue(data, depth+1)
			if err != nil {
				return nil, nil, err
			}
			out[key] = vv
		}
		return out, data, nil
	default:
		return nil, nil, fmt.Errorf("wire: unknown tag %#x", tag)
	}
}

// Marshal encodes a single value.
func Marshal(v any) ([]byte, error) { return appendValue(nil, v, 0) }

// Unmarshal decodes a single value and requires the buffer to be fully
// consumed. Strings and byte slices are copied.
func Unmarshal(data []byte) (any, error) {
	v, rest, err := decodeValue(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", len(rest))
	}
	return v, nil
}
