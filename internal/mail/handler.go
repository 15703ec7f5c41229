package mail

import (
	"context"
	"fmt"
	"sync/atomic"

	"partsvc/internal/coherence"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// RPC adapters: expose an Upstream over a transport (NewHandler) and
// consume a remote Upstream through an endpoint (NewRemote). All
// payloads use the wire value encoding, so the same bits flow over the
// in-process transport, TCP, and the encryptor tunnel.

// NewHandler serves an Upstream as a transport.Handler. Each request
// runs under a "mail.<method>" span continuing whatever trace context
// rode in on the message (stamped by the transport's serve span).
func NewHandler(api Upstream) transport.Handler {
	return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		ctx, span := trace.StartRemote(context.Background(),
			trace.SpanContext{TraceID: m.TraceID, SpanID: m.SpanID}, "mail."+m.Method)
		reply, err := dispatch(ctx, api, m)
		span.End()
		if err != nil {
			return transport.ErrorResponse(m, "%v", err)
		}
		body, err := wire.Marshal(reply)
		if err != nil {
			return transport.ErrorResponse(m, "encoding reply: %v", err)
		}
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Method: m.Method, Body: body}
	})
}

func dispatch(ctx context.Context, api Upstream, m *wire.Message) (map[string]any, error) {
	// A send's mail body points into the request instead of being
	// copied out of it: every provider either seals it, re-encodes it
	// upstream or clones it into its store before returning, so nothing
	// keeps it past the request. The short strings beside it are copied
	// (views retain them), and so are the arguments of every other
	// method — a pushUpdates batch lives on in replica logs.
	args, err := decodeArgs(m.Body, m.Method == "send")
	if err != nil {
		return nil, err
	}
	str := func(k string) string { s, _ := args[k].(string); return s }
	switch m.Method {
	case "createAccount":
		return map[string]any{}, api.CreateAccount(str("user"))
	case "send":
		body, _ := args["body"].([]byte)
		sens, _ := args["sens"].(int64)
		id, err := SendCtx(ctx, api, str("from"), str("to"), str("subject"), body, int(sens))
		return map[string]any{"id": int64(id)}, err
	case "receive":
		above, _ := args["above"].(int64)
		msgs, err := ReceiveCtx(ctx, api, str("user"), int(above))
		if err != nil {
			return nil, err
		}
		encoded := make([]any, len(msgs))
		for i, msg := range msgs {
			data, err := encodeMessage(msg)
			if err != nil {
				return nil, err
			}
			encoded[i] = data
		}
		return map[string]any{"msgs": encoded}, nil
	case "addContact":
		return map[string]any{}, api.AddContact(str("user"), str("contact"))
	case "contacts":
		contacts, err := api.Contacts(str("user"))
		if err != nil {
			return nil, err
		}
		out := make([]any, len(contacts))
		for i, c := range contacts {
			out[i] = c
		}
		return map[string]any{"contacts": out}, nil
	case "pushUpdates":
		items, _ := args["batch"].([]any)
		batch := make([]coherence.Update, 0, len(items))
		for _, item := range items {
			u, err := decodeUpdate(item)
			if err != nil {
				return nil, err
			}
			batch = append(batch, u)
		}
		return map[string]any{}, PushUpdatesCtx(ctx, api, batch)
	case "snapshot":
		sn, ok := api.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("mail: %T holds no migratable state", api)
		}
		state, err := sn.Snapshot()
		if err != nil {
			return nil, err
		}
		return map[string]any{"state": state}, nil
	default:
		return nil, fmt.Errorf("mail: unknown method %q", m.Method)
	}
}

// unmarshal decodes one wire value; with alias set its byte slices
// share data's memory (wire.UnmarshalAlias).
func unmarshal(data []byte, alias bool) (any, error) {
	if alias {
		return wire.UnmarshalAlias(data)
	}
	return wire.Unmarshal(data)
}

// decodeArgs decodes an argument or reply map.
func decodeArgs(body []byte, alias bool) (map[string]any, error) {
	if len(body) == 0 {
		return map[string]any{}, nil
	}
	v, err := unmarshal(body, alias)
	if err != nil {
		return nil, err
	}
	args, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("mail: args are %T, want map", v)
	}
	return args, nil
}

func encodeUpdate(u coherence.Update) map[string]any {
	return map[string]any{
		"origin": u.Origin, "seq": int64(u.Seq), "op": u.Op,
		"key": u.Key, "data": u.Data, "time": u.TimeMS,
	}
}

func decodeUpdate(v any) (coherence.Update, error) {
	f, ok := v.(map[string]any)
	if !ok {
		return coherence.Update{}, fmt.Errorf("mail: update is %T", v)
	}
	u := coherence.Update{}
	u.Origin, _ = f["origin"].(string)
	if seq, ok := f["seq"].(int64); ok {
		u.Seq = uint64(seq)
	}
	u.Op, _ = f["op"].(string)
	u.Key, _ = f["key"].(string)
	u.Data, _ = f["data"].([]byte)
	u.TimeMS, _ = f["time"].(float64)
	if u.Origin == "" || u.Seq == 0 || u.Op == "" {
		return coherence.Update{}, fmt.Errorf("mail: incomplete update encoding")
	}
	return u, nil
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
func (r *Remote) call(ctx context.Context, method string, args map[string]any) (map[string]any, error) {
	// The encoded arguments are scratch: once the call has returned and
	// the reply is decoded, the transport has framed them (or a
	// co-located handler has returned and let go of them), so the buffer
	// goes back to the pool.
	scratch := wire.GetBufferSize(wire.EncodedLen(args))
	body, err := wire.AppendValue(scratch, args)
	if err != nil {
		wire.PutBuffer(scratch)
		return nil, err
	}
	defer wire.PutBuffer(body)
	ctx, span := trace.Start(ctx, "proxy."+method)
	id := r.id.Add(1)
	resp, err := transport.Call(ctx, r.ep, &wire.Message{Kind: wire.KindRequest, ID: id, Method: method, Body: body})
	span.End()
	if err != nil {
		return nil, err
	}
	if err := transport.AsError(resp); err != nil {
		return nil, err
	}
	// The response is this call's own (DESIGN §5i: the caller owns the
	// response), so what is decoded from it points into it.
	return decodeArgs(resp.Body, true)
}

// CreateAccount implements API.
func (r *Remote) CreateAccount(user string) error {
	_, err := r.call(context.Background(), "createAccount", map[string]any{"user": user})
	return err
}

// Send implements API.
func (r *Remote) Send(from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	return r.SendCtx(context.Background(), from, to, subject, body, sensitivity)
}

// SendCtx is Send continuing the trace in ctx.
func (r *Remote) SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	reply, err := r.call(ctx, "send", map[string]any{
		"from": from, "to": to, "subject": subject, "body": body, "sens": int64(sensitivity),
	})
	if err != nil {
		return 0, err
	}
	id, _ := reply["id"].(int64)
	return uint64(id), nil
}

// Receive implements API.
func (r *Remote) Receive(user string) ([]*Message, error) {
	return r.ReceiveCtx(context.Background(), user, 0)
}

// ReceiveCtx is Receive continuing the trace in ctx, for messages whose
// sensitivity is above the floor. A floor of 0 is not sent: a request
// without one asks for the whole inbox. The returned bodies point into
// the reply, which nothing else refers to.
func (r *Remote) ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error) {
	args := map[string]any{"user": user}
	if above > 0 {
		args["above"] = int64(above)
	}
	reply, err := r.call(ctx, "receive", args)
	if err != nil {
		return nil, err
	}
	items, _ := reply["msgs"].([]any)
	out := make([]*Message, 0, len(items))
	for _, item := range items {
		data, ok := item.([]byte)
		if !ok {
			return nil, fmt.Errorf("mail: message entry is %T", item)
		}
		m, err := decodeMessage(data, true)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// AddContact implements API.
func (r *Remote) AddContact(user, contact string) error {
	_, err := r.call(context.Background(), "addContact", map[string]any{"user": user, "contact": contact})
	return err
}

// Contacts implements API.
func (r *Remote) Contacts(user string) ([]string, error) {
	reply, err := r.call(context.Background(), "contacts", map[string]any{"user": user})
	if err != nil {
		return nil, err
	}
	items, _ := reply["contacts"].([]any)
	out := make([]string, 0, len(items))
	for _, item := range items {
		s, ok := item.(string)
		if !ok {
			return nil, fmt.Errorf("mail: contact entry is %T", item)
		}
		out = append(out, s)
	}
	return out, nil
}

// Snapshotter is implemented by stateful mail components (Server, View)
// whose store can be serialized for migration. Relay components
// (encryptor, decryptor, client proxy) do not implement it: they hold
// no state worth carrying across a cutover.
type Snapshotter interface {
	Snapshot() ([]byte, error)
}

// Snapshot fetches the remote instance's serialized store state (the
// "snapshot" method). Stateless instances answer with an error.
func (r *Remote) Snapshot() ([]byte, error) {
	reply, err := r.call(context.Background(), "snapshot", map[string]any{})
	if err != nil {
		return nil, err
	}
	state, _ := reply["state"].([]byte)
	if state == nil {
		return nil, fmt.Errorf("mail: snapshot reply carried no state")
	}
	return state, nil
}

// SnapshotRemote dials addr on tr and fetches that instance's state
// snapshot — the adaptation controller's state-capture primitive.
func SnapshotRemote(tr transport.Transport, addr string) ([]byte, error) {
	ep, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	r := NewRemote(ep)
	defer r.Close()
	return r.Snapshot()
}

// PushUpdates implements UpdateSink.
func (r *Remote) PushUpdates(batch []coherence.Update) error {
	return r.PushUpdatesCtx(context.Background(), batch)
}

// PushUpdatesCtx is PushUpdates continuing the trace in ctx.
func (r *Remote) PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error {
	items := make([]any, len(batch))
	for i, u := range batch {
		items[i] = encodeUpdate(u)
	}
	_, err := r.call(ctx, "pushUpdates", map[string]any{"batch": items})
	return err
}
