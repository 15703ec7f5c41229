// Package wire implements the framework's binary wire format: length-
// prefixed frames, each carrying one Message, the custom serialization
// layer that stands in for Java RMI (see DESIGN.md, substitutions). There is one encoding, typed layouts: fields in a fixed order
// with no tags or keys, written with AppendString and the big-endian
// appenders of encoding/binary and read back with a Reader. The message
// envelope is one (Message). Its body is opaque here; a service gives
// each of its methods a layout of its own (the mail protocol,
// mail/handler.go; smock's install orders).
package wire

import "errors"

// MaxFrame is the largest frame a FrameReader accepts: a guard
// against corrupt length prefixes allocating unbounded memory.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame length prefix above the limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports an encoding that ends mid-field.
var ErrTruncated = errors.New("wire: truncated value")

// ErrTooLong reports a message field whose length does not fit its u32
// prefix (it would silently truncate on the wire otherwise).
var ErrTooLong = errors.New("wire: value length overflows u32 prefix")
