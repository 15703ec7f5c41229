package mail

import (
	"context"

	"partsvc/internal/coherence"
)

// Context-aware call paths. The mail API predates request tracing and
// is implemented by many small components, so instead of widening the
// API interface (and every fake in every test), providers that can
// thread a request context implement the per-method *Ctx variants
// below; the package-level helpers dispatch to them when present and
// fall back to the plain methods otherwise. Server, View, and Remote
// all implement the variants, so the trace context survives the whole
// provider chain — client proxy, tunnel, view, primary — and a
// coherence flush triggered deep inside a send still parents on the
// send's span.

type sendCtxer interface {
	SendCtx(ctx context.Context, from, to, subject string, body []byte, sensitivity int) (uint64, error)
}

type receiveCtxer interface {
	ReceiveCtx(ctx context.Context, user string, above int) ([]*Message, error)
}

type pushUpdatesCtxer interface {
	PushUpdatesCtx(ctx context.Context, batch []coherence.Update) error
}

// SendCtx invokes api.Send with ctx when the provider supports it.
func SendCtx(ctx context.Context, api API, from, to, subject string, body []byte, sensitivity int) (uint64, error) {
	if c, ok := api.(sendCtxer); ok {
		return c.SendCtx(ctx, from, to, subject, body, sensitivity)
	}
	return api.Send(from, to, subject, body, sensitivity)
}

// ReceiveCtx returns the messages of the user's inbox whose sensitivity
// is above the floor (0 = the whole inbox), with ctx when the provider
// supports it. A provider that only has the plain Receive returns
// everything and the floor is applied here.
func ReceiveCtx(ctx context.Context, api API, user string, above int) ([]*Message, error) {
	if c, ok := api.(receiveCtxer); ok {
		return c.ReceiveCtx(ctx, user, above)
	}
	msgs, err := api.Receive(user)
	if err != nil || above <= 0 {
		return msgs, err
	}
	kept := msgs[:0]
	for _, m := range msgs {
		if m.Sensitivity > above {
			kept = append(kept, m)
		}
	}
	return kept, nil
}

// PushUpdatesCtx invokes sink.PushUpdates with ctx when the sink
// supports it.
func PushUpdatesCtx(ctx context.Context, sink UpdateSink, batch []coherence.Update) error {
	if c, ok := sink.(pushUpdatesCtxer); ok {
		return c.PushUpdatesCtx(ctx, batch)
	}
	return sink.PushUpdates(batch)
}
