package mail

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"

	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// The Encryptor and Decryptor components of the mail specification are
// transport-level wrappers: the Encryptor seals whole requests before
// they cross an insecure link and the Decryptor opens them next to the
// provider. They are deliberately generic — they know nothing about
// mail semantics, matching their property-transparent role in the
// planner (they re-establish Confidentiality and pass TrustLevel
// through).

// ChannelKey is the symmetric key shared by an Encryptor-Decryptor
// pair, generated when the planner deploys the pair.
type ChannelKey []byte

// NewChannelKey returns a fresh random 256-bit key.
func NewChannelKey() (ChannelKey, error) {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("mail: channel key: %w", err)
	}
	return k, nil
}

// channel is one end's cipher state. Building it costs an AES key
// schedule and the GHASH tables, so each Encryptor and Decryptor builds
// it once, on first use, not per message; a bad key fails every seal
// and open with the same error. A cipher.AEAD is safe for concurrent
// use.
type channel struct {
	key  ChannelKey
	once sync.Once
	aead cipher.AEAD
	err  error
}

func (c *channel) cipher() (cipher.AEAD, error) {
	c.once.Do(func() {
		block, err := aes.NewCipher(c.key)
		if err == nil {
			c.aead, err = cipher.NewGCM(block)
		}
		if err != nil {
			c.err = fmt.Errorf("mail: channel cipher: %w", err)
		}
	})
	return c.aead, c.err
}

// seal encrypts the wire encoding of m under the channel key into one
// buffer holding nonce‖ciphertext, drawn from the wire pool when pooled
// is set (the caller then returns it with wire.PutBuffer) and allocated
// at exact size otherwise. The plaintext encode is a pooled scratch
// buffer that never leaves this function.
func (c *channel) seal(m *wire.Message, pooled bool) ([]byte, error) {
	aead, err := c.cipher()
	if err != nil {
		return nil, err
	}
	plain, err := m.AppendTo(wire.GetBufferSize(m.EncodedLen()))
	defer func() { wire.PutBuffer(plain) }()
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	size := ns + len(plain) + aead.Overhead()
	var out []byte
	if pooled {
		out = wire.GetBufferSize(size)[:ns]
	} else {
		out = make([]byte, ns, size)
	}
	if _, err := rand.Read(out); err != nil {
		return nil, err
	}
	return aead.Seal(out, out, plain, nil), nil
}

// open decrypts a payload sealed by seal, appending the plaintext to
// dst (nil allocates at exact size).
func (c *channel) open(dst, sealed []byte) ([]byte, error) {
	aead, err := c.cipher()
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	if len(sealed) < ns {
		return nil, fmt.Errorf("mail: sealed payload too short")
	}
	pt, err := aead.Open(dst, sealed[:ns], sealed[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("mail: opening channel payload: %w", err)
	}
	return pt, nil
}

// TunnelMethod is the method name of sealed tunnel messages.
const TunnelMethod = "tunnel"

// EncryptorEndpoint is the client half of the tunnel: a
// transport.Endpoint middleware that seals every message before
// forwarding it to the Decryptor and opens every response.
type EncryptorEndpoint struct {
	inner transport.Endpoint
	ch    channel
}

// NewEncryptorEndpoint wraps an endpoint with the Encryptor component.
func NewEncryptorEndpoint(inner transport.Endpoint, key ChannelKey) *EncryptorEndpoint {
	return &EncryptorEndpoint{inner: inner, ch: channel{key: key}}
}

// Call seals the wire-encoded request, transmits it as a tunnel
// message, and opens the sealed response.
func (e *EncryptorEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

// CallContext is Call under a "tunnel.call" span. The span's context is
// stamped into the inner message before sealing, so the trace survives
// the encryption boundary: the transport's own stamping only reaches
// the outer tunnel envelope, which the Decryptor discards. A
// co-location handshake is refused here: what sits behind the tunnel
// is not this endpoint's caller's neighbour.
func (e *EncryptorEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	if refusal := transport.RefuseUpgrade(m); refusal != nil {
		return refusal, nil
	}
	ctx, span := trace.Start(ctx, "tunnel.call")
	resp, err := e.callContext(ctx, m, span)
	if err != nil && span != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return resp, err
}

func (e *EncryptorEndpoint) callContext(ctx context.Context, m *wire.Message, span *trace.Span) (*wire.Message, error) {
	if span != nil {
		prevT, prevS := m.TraceID, m.SpanID
		sc := span.Context()
		m.TraceID, m.SpanID = sc.TraceID, sc.SpanID
		defer func() { m.TraceID, m.SpanID = prevT, prevS }()
	}
	// The sealed request is scratch: once the call returns, the
	// transport has framed it (or a co-located Decryptor has opened it)
	// and nothing refers to it any more.
	sealed, err := e.ch.seal(m, true)
	if err != nil {
		return nil, err
	}
	resp, err := e.inner.CallContext(ctx, &wire.Message{
		Kind: wire.KindRequest, ID: m.ID, Method: TunnelMethod, Body: sealed,
	})
	wire.PutBuffer(sealed)
	if err != nil {
		return nil, err
	}
	if err := transport.AsError(resp); err != nil {
		return nil, err
	}
	// The opened plaintext is allocated for this one response, so the
	// decoded message points into it instead of copying it again.
	opened, err := e.ch.open(nil, resp.Body)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalMessageAlias(opened)
}

// Close closes the underlying endpoint.
func (e *EncryptorEndpoint) Close() error { return e.inner.Close() }

// NewDecryptorHandler is the server half of the tunnel: it opens sealed
// tunnel messages, dispatches them to the inner handler, and seals the
// responses.
func NewDecryptorHandler(inner transport.Handler, key ChannelKey) transport.Handler {
	ch := &channel{key: key}
	return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		if m.Method != TunnelMethod {
			return transport.ErrorResponse(m, "decryptor: unexpected method %q", m.Method)
		}
		// Open into a pooled buffer and decode in place: the inner
		// request's fields point into the plaintext, which its slab
		// returns to the pool once the response is sealed.
		scratch := wire.GetBufferSize(len(m.Body))
		plain, err := ch.open(scratch, m.Body)
		if err != nil {
			wire.PutBuffer(scratch)
			return transport.ErrorResponse(m, "decryptor: %v", err)
		}
		req, err := wire.UnmarshalMessageSlab(plain)
		if err != nil {
			wire.PutBuffer(plain)
			return transport.ErrorResponse(m, "decryptor: %v", err)
		}
		defer req.Release()
		// Continue the inner message's trace (stamped by the Encryptor)
		// through a "tunnel.serve" span, re-stamping the request so the
		// inner handler's spans parent on it.
		var span *trace.Span
		if trace.Enabled() {
			span = trace.Default.StartSpan(
				trace.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID}, "tunnel.serve")
			sc := span.Context()
			req.TraceID, req.SpanID = sc.TraceID, sc.SpanID
		}
		resp := inner.Handle(req)
		span.End()
		if resp == nil {
			return transport.ErrorResponse(m, "decryptor: inner handler returned nil")
		}
		// The sealed response travels on by reference and has no release
		// hook, so it is a plain allocation at exact size.
		sealed, err := ch.seal(resp, false)
		if err != nil {
			return transport.ErrorResponse(m, "decryptor: sealing response: %v", err)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Method: TunnelMethod, Body: sealed}
	})
}
