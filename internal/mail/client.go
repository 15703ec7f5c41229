package mail

import (
	"context"
	"fmt"
	"math"

	"partsvc/internal/seccrypto"
)

// Client is the full MailClient component: composes, sends, receives,
// and decrypts messages, and manages the address book. It holds its
// user's own keys (all levels) for decrypting received mail.
type Client struct {
	user string
	keys *seccrypto.KeyRing
	api  API
}

// NewClient binds a user to a provider (direct server, view, or
// tunnel-backed remote).
func NewClient(user string, keys *seccrypto.KeyRing, api API) *Client {
	return &Client{user: user, keys: keys, api: api}
}

// Send submits a plaintext message at a sensitivity level; sealing
// happens inside the trusted provider component.
func (c *Client) Send(to, subject string, body []byte, sensitivity int) (uint64, error) {
	return c.SendCtx(context.Background(), to, subject, body, sensitivity)
}

// SendCtx is Send continuing the trace in ctx — the entry point tools
// use to root a trace at the client.
func (c *Client) SendCtx(ctx context.Context, to, subject string, body []byte, sensitivity int) (uint64, error) {
	return c.api.SendCtx(ctx, c.user, to, subject, body, sensitivity)
}

// Receive fetches the inbox and decrypts every body with the user's
// keys.
func (c *Client) Receive() ([]*Message, error) {
	msgs, err := c.api.ReceiveCtx(context.Background(), c.user, 0)
	if err != nil {
		return nil, err
	}
	return openInbox(c.keys, c.user, msgs, math.MaxInt)
}

// openInbox decrypts the user's messages in place and returns those
// whose sensitivity is at most ceiling, dropping the rest unopened. A
// message that is not an envelope, is sealed for another user or does
// not open fails the whole receive.
func openInbox(keys *seccrypto.KeyRing, user string, msgs []*Message, ceiling int) ([]*Message, error) {
	out := msgs[:0]
	for _, m := range msgs {
		env, err := seccrypto.UnmarshalEnvelope(m.Body)
		if err != nil {
			return nil, fmt.Errorf("mail: message %d: %w", m.ID, err)
		}
		if env.User != user {
			return nil, fmt.Errorf("mail: message %d sealed for %q, not %q", m.ID, env.User, user)
		}
		if m.Sensitivity > ceiling {
			continue
		}
		if m.Body, err = keys.Open(env); err != nil {
			return nil, fmt.Errorf("mail: decrypting message %d: %w", m.ID, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// AddContact updates the address book (full client feature).
func (c *Client) AddContact(contact string) error {
	return c.api.AddContact(c.user, contact)
}

// Contacts reads the address book (full client feature).
func (c *Client) Contacts() ([]string, error) {
	return c.api.Contacts(c.user)
}

// ViewClient is the ViewMailClient object view: the restricted client
// deployed for less-trusted principals. It supports only send and
// receive — no address book — and caps outgoing sensitivity at its
// node's trust level (the object-view restriction of Section 3.1).
type ViewClient struct {
	user  string
	trust int
	keys  *seccrypto.KeyRing
	api   API
}

// NewViewClient binds a restricted client at a trust level.
func NewViewClient(user string, trust int, keys *seccrypto.KeyRing, api API) *ViewClient {
	return &ViewClient{user: user, trust: trust, keys: keys, api: api}
}

// Send submits a message; sensitivities above the client's trust are
// rejected locally.
func (c *ViewClient) Send(to, subject string, body []byte, sensitivity int) (uint64, error) {
	if sensitivity > c.trust {
		return 0, fmt.Errorf("mail: view client at trust %d cannot send sensitivity %d", c.trust, sensitivity)
	}
	return c.api.SendCtx(context.Background(), c.user, to, subject, body, sensitivity)
}

// Receive fetches and decrypts the inbox; messages the client's key
// escrow cannot open (above its trust) are elided rather than failing
// the whole sweep.
func (c *ViewClient) Receive() ([]*Message, error) {
	msgs, err := c.api.ReceiveCtx(context.Background(), c.user, 0)
	if err != nil {
		return nil, err
	}
	return openInbox(c.keys, c.user, msgs, c.trust)
}
