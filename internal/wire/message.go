package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// MsgKind distinguishes the message types exchanged by the Smock
// run-time and the transports.
type MsgKind uint8

// Message kinds.
const (
	// KindRequest is a client-to-component request.
	KindRequest MsgKind = 1
	// KindResponse answers a request (matching ID).
	KindResponse MsgKind = 2
	// KindError answers a request with a failure.
	KindError MsgKind = 3
	// KindInstall carries a component installation order to a node
	// wrapper: factory name, factored configuration and state snapshot.
	KindInstall MsgKind = 4
	// KindCoherence carries replica update batches between coherence
	// peers.
	KindCoherence MsgKind = 5
	// KindUpgrade is the co-location handshake a node wrapper sends
	// through a freshly dialed endpoint: Meta["node"] names the caller's
	// node. Endpoints answer it themselves (see transport.Upgrade); it
	// never reaches a component handler and never crosses a socket.
	KindUpgrade MsgKind = 6
)

// String names the kind.
func (k MsgKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindError:
		return "error"
	case KindInstall:
		return "install"
	case KindCoherence:
		return "coherence"
	case KindUpgrade:
		return "upgrade"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the unit of communication between framework pieces: proxy
// to generic server, client component to provider, deployment engine to
// node wrapper, and replica to coherence directory.
type Message struct {
	// Kind is the message type.
	Kind MsgKind
	// ID correlates responses with requests at the application level.
	// (Multiplexed transports additionally correlate by frame-level
	// request ID, so handlers remain free to use ID as they always
	// have.)
	ID uint64
	// Target names the destination component instance or service.
	Target string
	// Method is the operation being invoked.
	Method string
	// Meta carries string metadata (credentials, property bindings).
	Meta map[string]string
	// Body is the operation payload, opaque to the transport.
	Body []byte
	// TraceID and SpanID carry the request-tracing context across RPC
	// boundaries. They ride in an optional "trace" field emitted only
	// when TraceID is non-zero, so untraced messages encode
	// byte-identically to the pre-tracing format — and peers that
	// predate tracing (v1 or older v2 decoders) skip the field via the
	// unknown-field path without seeing any difference.
	TraceID uint64
	SpanID  uint64

	// slab backs zero-copy decoded messages (UnmarshalMessageSlab):
	// the fields above alias its buffer until Release. Nil for
	// messages decoded by UnmarshalMessage or built by hand.
	slab *Slab
}

// Message field keys in their wire order. The encoding is the generic
// map encoding (sorted keys), emitted directly so the hot path builds
// no intermediate map[string]any.
const (
	keyBody   = "body"
	keyID     = "id"
	keyKind   = "kind"
	keyMeta   = "meta"
	keyMethod = "method"
	keyTarget = "target"
	keyTrace  = "trace" // optional; sorts after "target"
)

// traceFieldLen is the payload of the optional trace field: big-endian
// trace ID followed by big-endian span ID.
const traceFieldLen = 16

func appendKeyedString(buf []byte, key string) []byte {
	buf = append(buf, tagString)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...)
}

// checkLengths rejects any field whose u32 length prefix would
// overflow. All checks run before AppendTo writes a byte, so a failed
// encode leaves buf untouched.
func (m *Message) checkLengths() error {
	if uint64(len(m.Body)) > math.MaxUint32 {
		return fmt.Errorf("%w: message body of %d bytes", ErrTooLong, len(m.Body))
	}
	if uint64(len(m.Target)) > math.MaxUint32 {
		return fmt.Errorf("%w: message target of %d bytes", ErrTooLong, len(m.Target))
	}
	if uint64(len(m.Method)) > math.MaxUint32 {
		return fmt.Errorf("%w: message method of %d bytes", ErrTooLong, len(m.Method))
	}
	for k, v := range m.Meta {
		if uint64(len(k)) > math.MaxUint32 {
			return fmt.Errorf("%w: message meta key of %d bytes", ErrTooLong, len(k))
		}
		if uint64(len(v)) > math.MaxUint32 {
			return fmt.Errorf("%w: message meta value of %d bytes", ErrTooLong, len(v))
		}
	}
	return nil
}

// AppendTo appends the message encoding to buf (which may come from
// GetBuffer), producing exactly the bytes Marshal produces. On error
// buf is returned unmodified, so pooled buffers stay recyclable.
func (m *Message) AppendTo(buf []byte) ([]byte, error) {
	if err := m.checkLengths(); err != nil {
		return buf, err
	}
	fields := uint32(6)
	if m.TraceID != 0 {
		fields = 7
	}
	buf = append(buf, tagMap)
	buf = binary.BigEndian.AppendUint32(buf, fields)

	buf = appendKeyedString(buf, keyBody)
	buf = append(buf, tagBytes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Body)))
	buf = append(buf, m.Body...)

	buf = appendKeyedString(buf, keyID)
	buf = appendInt(buf, int64(m.ID))

	buf = appendKeyedString(buf, keyKind)
	buf = appendInt(buf, int64(m.Kind))

	buf = appendKeyedString(buf, keyMeta)
	buf = append(buf, tagMap)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Meta)))
	if len(m.Meta) > 0 {
		keys := make([]string, 0, len(m.Meta))
		for k := range m.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = appendKeyedString(buf, k)
			buf = appendKeyedString(buf, m.Meta[k])
		}
	}

	buf = appendKeyedString(buf, keyMethod)
	buf = appendKeyedString(buf, m.Method)

	buf = appendKeyedString(buf, keyTarget)
	buf = appendKeyedString(buf, m.Target)

	if m.TraceID != 0 {
		buf = appendKeyedString(buf, keyTrace)
		buf = append(buf, tagBytes)
		buf = binary.BigEndian.AppendUint32(buf, traceFieldLen)
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
	}
	return buf, nil
}

// keyedLen is the encoded size of one string (tag, u32 length, bytes).
func keyedLen(s string) int { return 5 + len(s) }

// encodedLenFixed is the part of a message encoding that does not
// depend on its contents: the map header, the six keys, the two ints
// and the tag+length prefixes of body and meta.
const encodedLenFixed = 5 +
	(5 + len(keyBody)) + 5 +
	(5 + len(keyID)) + 9 +
	(5 + len(keyKind)) + 9 +
	(5 + len(keyMeta)) + 5 +
	(5 + len(keyMethod)) +
	(5 + len(keyTarget))

// EncodedLen returns len(m.Marshal()) without encoding: encoders use
// it to draw a pooled buffer of the class that fits
// (GetBufferSize(m.EncodedLen())) or to allocate once at exact size.
func (m *Message) EncodedLen() int {
	n := encodedLenFixed + len(m.Body) + keyedLen(m.Method) + keyedLen(m.Target)
	for k, v := range m.Meta {
		n += keyedLen(k) + keyedLen(v)
	}
	if m.TraceID != 0 {
		n += keyedLen(keyTrace) + 5 + traceFieldLen
	}
	return n
}

// Marshal encodes the message with the wire value encoding into one
// allocation of exactly the encoded size.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendTo(make([]byte, 0, m.EncodedLen()))
}

// decodeString decodes a tagString value without boxing it in an
// interface. With alias set the string shares data's memory (valid
// only as long as data is) instead of copying it.
func decodeString(data []byte, alias bool) (string, []byte, error) {
	if len(data) < 5 || data[0] != tagString {
		return "", nil, fmt.Errorf("wire: expected string value")
	}
	n := binary.BigEndian.Uint32(data[1:5])
	data = data[5:]
	if uint32(len(data)) < n {
		return "", nil, ErrTruncated
	}
	if alias {
		return aliasString(data[:n]), data[n:], nil
	}
	return string(data[:n]), data[n:], nil
}

func decodeIntField(data []byte) (int64, []byte, error) {
	if len(data) < 9 || data[0] != tagInt {
		return 0, nil, fmt.Errorf("wire: expected int value")
	}
	return int64(binary.BigEndian.Uint64(data[1:9])), data[9:], nil
}

// UnmarshalMessage decodes a message encoded by Marshal. The field
// values are decoded in place (no intermediate generic map), so data
// buffers can be pooled: the returned message does not alias data.
func UnmarshalMessage(data []byte) (*Message, error) {
	m := &Message{}
	if err := decodeMessage(m, data, false); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalMessageAlias is UnmarshalMessage without the copies: every
// string and byte field of the returned message shares data's memory.
// There is no slab and nothing to Release — the garbage collector keeps
// data alive as long as the message is — so the caller must simply
// never write to or recycle data afterwards. It suits a buffer the
// caller allocated for this one message (an opened tunnel payload).
func UnmarshalMessageAlias(data []byte) (*Message, error) {
	m := &Message{}
	if err := decodeMessage(m, data, true); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeMessage is the one message decoder behind UnmarshalMessage,
// UnmarshalMessageAlias and UnmarshalMessageSlab: it fills the zeroed
// *m from data, copying string and byte fields or, with alias set,
// pointing them into data. Field keys are only compared, so they
// always alias.
func decodeMessage(m *Message, data []byte, alias bool) error {
	if len(data) < 5 || data[0] != tagMap {
		// Not a map at the top level: fall back to the generic decoder
		// for its precise error messages.
		v, err := Unmarshal(data)
		if err != nil {
			return err
		}
		return fmt.Errorf("wire: message is %T, want map", v)
	}
	count := binary.BigEndian.Uint32(data[1:5])
	data = data[5:]
	sawKind := false
	for i := uint32(0); i < count; i++ {
		key, rest, err := decodeString(data, true)
		if err != nil {
			return fmt.Errorf("wire: message key: %w", err)
		}
		data = rest
		switch key {
		case keyKind:
			var k int64
			if k, data, err = decodeIntField(data); err != nil {
				return fmt.Errorf("wire: message kind: %w", err)
			}
			m.Kind = MsgKind(k)
			sawKind = true
		case keyID:
			var id int64
			if id, data, err = decodeIntField(data); err != nil {
				return fmt.Errorf("wire: message id: %w", err)
			}
			m.ID = uint64(id)
		case keyTarget:
			if m.Target, data, err = decodeString(data, alias); err != nil {
				return fmt.Errorf("wire: message target: %w", err)
			}
		case keyMethod:
			if m.Method, data, err = decodeString(data, alias); err != nil {
				return fmt.Errorf("wire: message method: %w", err)
			}
		case keyMeta:
			if len(data) < 5 || data[0] != tagMap {
				return fmt.Errorf("wire: message meta is not a map")
			}
			n := binary.BigEndian.Uint32(data[1:5])
			data = data[5:]
			if n > 0 {
				// Cap the size hint as the generic decoder does: a
				// hostile count must not preallocate gigabytes before
				// the truncation check can reject it.
				m.Meta = make(map[string]string, min(int(n), 1024))
			}
			for j := uint32(0); j < n; j++ {
				var mk, mv string
				if mk, data, err = decodeString(data, alias); err != nil {
					return fmt.Errorf("wire: meta key: %w", err)
				}
				if mv, data, err = decodeString(data, alias); err != nil {
					return fmt.Errorf("wire: meta %q has non-string value", mk)
				}
				m.Meta[mk] = mv
			}
		case keyBody:
			if len(data) < 5 || data[0] != tagBytes {
				return fmt.Errorf("wire: message body is not bytes")
			}
			n := binary.BigEndian.Uint32(data[1:5])
			data = data[5:]
			if uint32(len(data)) < n {
				return ErrTruncated
			}
			if n > 0 {
				if alias {
					m.Body = data[:n:n]
				} else {
					m.Body = append([]byte(nil), data[:n]...)
				}
			}
			data = data[n:]
		case keyTrace:
			// Optional trace context. Unexpected shapes (a future
			// revision widening the field) are skipped, not rejected —
			// the same leniency older decoders extend to us.
			if len(data) >= 5 && data[0] == tagBytes &&
				binary.BigEndian.Uint32(data[1:5]) == traceFieldLen &&
				uint32(len(data)-5) >= traceFieldLen {
				// A zero trace ID means "untraced" (AppendTo omits the
				// field for it), so a span ID beside it carries nothing.
				if m.TraceID = binary.BigEndian.Uint64(data[5:13]); m.TraceID != 0 {
					m.SpanID = binary.BigEndian.Uint64(data[13:21])
				}
				data = data[5+traceFieldLen:]
				break
			}
			if data, err = skipValue(data); err != nil {
				return fmt.Errorf("wire: message field %q: %w", key, err)
			}
		default:
			// Forward compatibility: skip unknown fields.
			if data, err = skipValue(data); err != nil {
				return fmt.Errorf("wire: message field %q: %w", key, err)
			}
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after value", len(data))
	}
	if !sawKind {
		return fmt.Errorf("wire: message missing kind")
	}
	return nil
}

// skipValue steps over one encoded value of an unknown field.
func skipValue(data []byte) ([]byte, error) {
	_, rest, err := DecodeValue(data)
	return rest, err
}
