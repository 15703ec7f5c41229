package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framing, version 2.
//
// A frame carries a transport-level request ID so responses can return
// out of order over one multiplexed connection:
//
//	[u32 word = 0x80000000 | payload length][u8 version=2][u64 request id][payload]
//
// The high bit of the length word marks the versioned header; payload
// lengths are bounded by MaxFrame (16 MiB), so it never collides with a
// length. A length word without it is the unversioned framing no peer
// speaks any more, or garbage: the reader rejects it with
// ErrFrameVersion and the transport drops the connection. Writers build
// headers with AppendFrameHeader and writev them alongside the
// payloads, so a burst of frames reaches the kernel in one write.

const (
	// FrameV2 is the multiplexed framing with request IDs.
	FrameV2 = 2

	frameV2Flag   = 0x80000000
	frameV2HdrLen = 1 + 8 // version byte + request id

	// FrameHeaderLenV2 is the on-wire header size, exported for
	// transports that account bytes or build headers themselves
	// (AppendFrameHeader).
	FrameHeaderLenV2 = 4 + frameV2HdrLen
)

// ErrFrameVersion reports a frame that is not version 2: a length word
// without the version flag, or an unknown version byte behind it.
var ErrFrameVersion = errors.New("wire: unsupported frame version")

// Frame is one decoded frame. Payload may come from the shared buffer
// pool; callers done with it should hand it back via PutBuffer.
type Frame struct {
	// ID is the transport-level request ID.
	ID uint64
	// Payload is the framed message bytes.
	Payload []byte
}

// FrameReader decodes v2 frames from a buffered stream.
type FrameReader struct {
	br *bufio.Reader
	// scratch backs the fixed-size header reads; a local array would
	// escape through the io.ReadFull interface call and cost one heap
	// allocation per frame.
	scratch [4 + frameV2HdrLen]byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 32<<10)}
}

// Next reads one frame. The payload buffer is drawn from the shared
// pool; return it with PutBuffer once decoded. io.EOF passes through
// unwrapped on a clean close between frames.
func (fr *FrameReader) Next() (Frame, error) {
	hdr := fr.scratch[:4]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return Frame{}, err
	}
	word := binary.BigEndian.Uint32(hdr)
	if word&frameV2Flag == 0 {
		return Frame{}, fmt.Errorf("%w: length word %#08x carries no version flag", ErrFrameVersion, word)
	}
	n := word &^ frameV2Flag
	ext := fr.scratch[4 : 4+frameV2HdrLen]
	if _, err := io.ReadFull(fr.br, ext); err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if ext[0] != FrameV2 {
		return Frame{}, fmt.Errorf("%w: %d", ErrFrameVersion, ext[0])
	}
	if n > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	payload := GetBufferSize(int(n))[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		PutBuffer(payload)
		return Frame{}, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	return Frame{ID: binary.BigEndian.Uint64(ext[1:]), Payload: payload}, nil
}

// AppendFrameHeader appends the v2 frame header (length word with the
// v2 flag, version byte, request ID) for a payload of n bytes. The
// scatter-gather write path builds headers into one scratch buffer and
// writevs them alongside the payloads, so a burst of frames reaches
// the kernel in a single syscall with zero intermediate copies.
func AppendFrameHeader(dst []byte, id uint64, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(n)|frameV2Flag)
	dst = append(dst, FrameV2)
	return binary.BigEndian.AppendUint64(dst, id)
}

// The encode/decode buffer pool lives in pool.go (size-classed).
