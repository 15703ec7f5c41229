package mail

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"partsvc/internal/coherence"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// RPC adapters: expose an Upstream over a transport (NewHandler) and
// consume a remote Upstream through an endpoint (NewRemote). Every
// method has a fixed layout for its request and its reply (wire's typed
// layouts), so the same bits flow over the in-process transport, TCP,
// and the encryptor tunnel:
//
//	method         request                          reply
//	createAccount  user                             -
//	send           from to subject sens:u64 body    id:u64
//	receive        above:u64 user                   count:u32 message...
//	addContact     user contact                     -
//	contacts       user                             count:u32 contact...
//	snapshot       -                                the store snapshot
//	pushUpdates    count:u32 update...              -
//
// A message is id:u64 from to subject sens:u8 at:f64 body, the body
// last so that a sealed one can be written in place (sealMessage); an
// update is origin seq:u64 op key time:f64 data. The remaining fields
// are strings and byte slices: a u32 length and the bytes.

// NewHandler serves an Upstream as a transport.Handler. Each request
// runs under a "mail.<method>" span continuing whatever trace context
// rode in on the message (stamped by the transport's serve span).
func NewHandler(api Upstream) transport.Handler {
	return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		ctx, span := trace.StartRemote(context.Background(),
			trace.SpanContext{TraceID: m.TraceID, SpanID: m.SpanID}, "mail."+m.Method)
		body, err := dispatch(ctx, api, m.Method, m.Body)
		span.End()
		if err != nil {
			return transport.ErrorResponse(m, "%v", err)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Method: m.Method, Body: body}
	})
}

func dispatch(ctx context.Context, api Upstream, method string, body []byte) ([]byte, error) {
	a, err := decodeArgs(method, body)
	if err != nil {
		return nil, err
	}
	var res result
	switch method {
	case "createAccount":
		err = api.CreateAccount(a.user)
	case "send":
		res.id, err = api.SendCtx(ctx, a.user, a.to, a.subject, a.body, a.sens)
	case "receive":
		res.msgs, err = api.ReceiveCtx(ctx, a.user, a.sens)
	case "addContact":
		err = api.AddContact(a.user, a.contact)
	case "contacts":
		res.contacts, err = api.Contacts(a.user)
	case "pushUpdates":
		err = api.PushUpdatesCtx(ctx, a.batch)
	case "snapshot":
		res.state, err = api.Snapshot()
	}
	if err != nil {
		return nil, err
	}
	return appendResult(method, &res), nil
}

// args holds one request's arguments and result one reply's values:
// each method uses the fields its layout lists, in that order.
type args struct {
	user, to, subject, contact string
	sens                       int // send's sensitivity, receive's floor
	body                       []byte
	batch                      []coherence.Update
}

type result struct {
	id       uint64
	msgs     []*Message
	contacts []string
	state    []byte
}

// size bounds the encoding of a, whichever fields the method writes.
func (a *args) size() int {
	n := 24 + len(a.user) + len(a.to) + len(a.subject) + len(a.contact) + len(a.body)
	for i := range a.batch {
		n += updateLen(&a.batch[i])
	}
	return n
}

func appendArgs(b []byte, method string, a *args) []byte {
	switch method {
	case "createAccount", "contacts":
		b = wire.AppendString(b, a.user)
	case "addContact":
		b = wire.AppendString(wire.AppendString(b, a.user), a.contact)
	case "send":
		b = wire.AppendString(wire.AppendString(wire.AppendString(b, a.user), a.to), a.subject)
		b = wire.AppendString(binary.BigEndian.AppendUint64(b, uint64(a.sens)), a.body)
	case "receive":
		b = wire.AppendString(binary.BigEndian.AppendUint64(b, uint64(a.sens)), a.user)
	case "pushUpdates":
		b = binary.BigEndian.AppendUint32(b, uint32(len(a.batch)))
		for i := range a.batch {
			b = appendUpdate(b, &a.batch[i])
		}
	}
	return b
}

func decodeArgs(method string, body []byte) (a args, err error) {
	r := wire.NewReader(body)
	switch method {
	case "createAccount", "contacts":
		a.user = r.Text()
	case "addContact":
		a.user, a.contact = r.Text(), r.Text()
	case "send":
		// The mail body points into the request: every provider seals it
		// or re-encodes it upstream before returning. The short strings
		// beside it are copied (views retain them).
		a.user, a.to, a.subject, a.sens, a.body = r.Text(), r.Text(), r.Text(), int(r.Uint64()), r.Bytes()
	case "receive":
		a.sens, a.user = int(r.Uint64()), r.Text()
	case "pushUpdates":
		// A batch lives on in replica logs: its updates point into one
		// copy of the request.
		r = wire.NewReader(bytes.Clone(body))
		a.batch = make([]coherence.Update, r.Count(updateMin))
		for i := range a.batch {
			decodeUpdate(&r, &a.batch[i])
		}
	case "snapshot":
	default:
		return a, fmt.Errorf("mail: unknown method %q", method)
	}
	return a, r.Done()
}

// appendResult encodes a reply into a buffer of its own, so the caller
// owns the response.
func appendResult(method string, res *result) []byte {
	switch method {
	case "send":
		return binary.BigEndian.AppendUint64(make([]byte, 0, 8), res.id)
	case "receive":
		n := 4
		for _, m := range res.msgs {
			n += messageLen(m)
		}
		b := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(res.msgs)))
		for _, m := range res.msgs {
			b = appendMessage(b, m)
		}
		return b
	case "contacts":
		return appendStrings(nil, res.contacts)
	case "snapshot":
		return res.state
	}
	return nil
}

// decodeResult decodes a reply the caller owns: received messages share
// one array, and their bodies and a snapshot point into the reply.
func decodeResult(method string, body []byte) (res result, err error) {
	r := wire.NewReader(body)
	switch method {
	case "send":
		res.id = r.Uint64()
	case "receive":
		msgs := make([]Message, r.Count(messageMin))
		res.msgs = make([]*Message, len(msgs))
		for i := range msgs {
			decodeMessage(&r, &msgs[i])
			res.msgs[i] = &msgs[i]
		}
	case "contacts":
		res.contacts = make([]string, r.Count(4))
		for i := range res.contacts {
			res.contacts[i] = r.Text()
		}
	case "snapshot":
		if len(body) == 0 {
			return res, errors.New("mail: snapshot reply carried no state")
		}
		return result{state: body}, nil
	}
	return res, r.Done()
}

func appendStrings(b []byte, list []string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(list)))
	for _, s := range list {
		b = wire.AppendString(b, s)
	}
	return b
}

// updateMin is the encoded size of an update whose fields are empty.
const updateMin = 4 + 8 + 4 + 4 + 8 + 4

func updateLen(u *coherence.Update) int {
	return updateMin + len(u.Origin) + len(u.Op) + len(u.Key) + len(u.Data)
}

func appendUpdate(b []byte, u *coherence.Update) []byte {
	b = binary.BigEndian.AppendUint64(wire.AppendString(b, u.Origin), u.Seq)
	b = wire.AppendString(wire.AppendString(b, u.Op), u.Key)
	return wire.AppendString(binary.BigEndian.AppendUint64(b, math.Float64bits(u.TimeMS)), u.Data)
}

// decodeUpdate reads an update whose Data points into the input. One
// without an origin, a sequence number or an operation fails r.
func decodeUpdate(r *wire.Reader, u *coherence.Update) {
	*u = coherence.Update{Origin: r.Text(), Seq: r.Uint64(), Op: r.Text(), Key: r.Text(), TimeMS: r.Float64(), Data: r.Bytes()}
	if u.Origin == "" || u.Seq == 0 || u.Op == "" {
		r.Fail(errors.New("mail: incomplete update encoding"))
	}
}

// Remote is a client stub: an Upstream backed by a transport endpoint.
// It is safe for concurrent use: endpoints multiplex calls, and the
// message ID sequence is atomic.
type Remote struct {
	ep transport.Endpoint
	id atomic.Uint64
}

// NewRemote returns an Upstream that forwards every call over the
// endpoint (which may itself be an EncryptorEndpoint tunnel).
func NewRemote(ep transport.Endpoint) *Remote { return &Remote{ep: ep} }

// Close releases the endpoint.
func (r *Remote) Close() error { return r.ep.Close() }

// call performs one proxied RPC under a "proxy.<method>" span (a new
// root when ctx carries no trace), so the remote side's spans link
// causally back to this stub.
func (r *Remote) call(ctx context.Context, method string, a *args) (result, error) {
	// The encoded arguments are scratch: once the call has returned and
	// the reply is decoded, the transport has framed them (or a
	// co-located handler has returned and let go of them), so the buffer
	// goes back to the pool.
	body := appendArgs(wire.GetBufferSize(a.size()), method, a)
	defer wire.PutBuffer(body)
	ctx, span := trace.Start(ctx, "proxy."+method)
	resp, err := r.ep.CallContext(ctx, &wire.Message{Kind: wire.KindRequest, ID: r.id.Add(1), Method: method, Body: body})
	span.End()
	if err != nil {
		return result{}, err
	}
	if err := transport.AsError(resp); err != nil {
		return result{}, err
	}
	// The response is this call's own (DESIGN §5i: the caller owns the
	// response), so what is decoded from it points into it.
	return decodeResult(method, resp.Body)
}

// CreateAccount implements API.
func (r *Remote) CreateAccount(user string) error {
	_, err := r.call(context.Background(), "createAccount", &args{user: user})
	return err
}

// SendCtx implements API.
func (r *Remote) SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	res, err := r.call(ctx, "send", &args{user: from, to: to, subject: subject, sens: sensitivity, body: body})
	return res.id, err
}

// ReceiveCtx implements API. The returned bodies point into the reply,
// which nothing else refers to.
func (r *Remote) ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error) {
	res, err := r.call(ctx, "receive", &args{user: user, sens: above})
	return res.msgs, err
}

// AddContact implements API.
func (r *Remote) AddContact(user, contact string) error {
	_, err := r.call(context.Background(), "addContact", &args{user: user, contact: contact})
	return err
}

// Contacts implements API.
func (r *Remote) Contacts(user string) ([]string, error) {
	res, err := r.call(context.Background(), "contacts", &args{user: user})
	return res.contacts, err
}

// Snapshot implements Upstream: it fetches the serialized store state
// of the instance behind the endpoint (the "snapshot" method).
func (r *Remote) Snapshot() ([]byte, error) {
	res, err := r.call(context.Background(), "snapshot", &args{})
	return res.state, err
}

// PushUpdatesCtx implements Upstream.
func (r *Remote) PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error {
	_, err := r.call(ctx, "pushUpdates", &args{batch: batch})
	return err
}
