package wire

import (
	"sync"
	"unsafe"
)

// Zero-copy message decoding. UnmarshalMessage copies every field out
// of the frame payload — one Message allocation, one body copy, one
// string allocation per text field, per message. On the server hot
// path that is the single biggest allocation source, and it sits on
// the connection reader goroutine, which is serial per connection.
//
// UnmarshalMessageSlab decodes in place instead: the returned Message
// and all of its string/byte fields alias the frame payload, which the
// slab retains until the message is released. The slab and the Message
// struct itself are pooled, so a steady-state decode performs zero
// allocations for messages without Meta entries.
//
// Lifetime rules:
//
//   - The decoder takes ownership of data on success: the payload goes
//     back to the buffer pool when the message is released. On error,
//     ownership stays with the caller.
//   - Release releases the message; it and every field aliasing it are
//     invalid afterwards. Transports release after the response is
//     encoded, so handlers may freely echo request fields into their
//     response.
//   - A handler (or caller) that keeps a field past the release must
//     copy the bytes out (strings.Clone / append). Storing an aliased
//     string into a long-lived map is the canonical leak-free-but-
//     corrupting bug.
//   - Release on a message decoded by UnmarshalMessage (or built by
//     hand) is a no-op, so callers can release unconditionally.

// Slab owns the payload backing one zero-copy decoded Message; Release
// returns both the slab and its payload buffer to their pools.
type Slab struct {
	buf []byte
	msg Message
}

var slabPool sync.Pool // holds *Slab

// aliasString returns a string sharing data's bytes (no copy). The
// string is valid only while the backing slab holds a reference.
func aliasString(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	return unsafe.String(&data[0], len(data))
}

// UnmarshalMessageSlab decodes a message encoded by Marshal without
// copying: every string and byte field of the returned Message aliases
// data, which the message's slab owns until Release. It accepts and
// rejects exactly the inputs UnmarshalMessage does and produces
// field-equal messages (fuzz-asserted; both run decodeMessage). On
// success the decoder owns data (do not PutBuffer it); on error
// ownership stays with the caller.
func UnmarshalMessageSlab(data []byte) (*Message, error) {
	s, _ := slabPool.Get().(*Slab)
	if s == nil {
		s = &Slab{}
	}
	m := &s.msg
	*m = Message{}
	if err := decodeMessage(m, data, true); err != nil {
		s.msg = Message{}
		slabPool.Put(s)
		return nil, err
	}
	s.buf = data
	m.slab = s
	return m, nil
}

// Release recycles the message's slab and its payload buffer. The
// message and every field aliasing it are invalid after the call.
// Release must be called at most once (like PutBuffer, a double release
// corrupts the pool). On a message that is not slab-backed it is a
// no-op, so callers may release unconditionally.
func (m *Message) Release() {
	s := m.slab
	if s == nil {
		return
	}
	buf := s.buf
	s.buf = nil
	s.msg = Message{}
	slabPool.Put(s)
	PutBuffer(buf)
}
