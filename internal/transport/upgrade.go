package transport

import "partsvc/internal/wire"

// Co-located linkages. The planner places both ends of a linkage before
// Smock wires it, so the wiring knows when a consumer and its provider
// sit in one node wrapper — and a link inside one wrapper need not be a
// socket. Nothing selects the in-process path: it follows from the two
// placements alone.
//
// The wrapper serving an instance tags the listener with its node
// (TagNode). The wrapper installing a consumer dials the provider's
// address as always and then announces its own node through the
// endpoint with an ordinary Call of a KindUpgrade message (Upgrade).
// An endpoint whose transport instance serves that address on a
// listener tagged with the same node answers "upgraded" itself and from
// then on invokes the listener's handler directly on the caller's
// goroutine, passing the message by reference. Every other endpoint —
// cross-node, another process, InProc, a wrapping endpoint — answers
// "not upgraded" and behaves exactly as before. The handshake rides
// Call so that it passes through whatever wraps the endpoint (tracing
// wrappers keep seeing every call), and an endpoint answers it locally
// so an upgrade request never crosses a socket to a peer that predates
// the kind. Control listeners are never tagged: liveness probes must
// keep crossing the socket.

const (
	upgradeNodeKey = "node"
	upgradedKey    = "upgraded"
)

// TagNode records that ln serves an instance hosted by the named node's
// wrapper, making it eligible for in-process dispatch from consumers on
// the same node. Listeners that cannot dispatch in process ignore it.
func TagNode(ln Listener, node string) {
	if l, ok := ln.(*tcpListener); ok {
		l.node.Store(&node)
	}
}

// Upgrade announces the caller's node through ep and reports whether
// the endpoint switched to in-process dispatch. A failed handshake is
// "not upgraded": the endpoint is used as dialed.
func Upgrade(ep Endpoint, node string) bool {
	resp, err := ep.Call(&wire.Message{
		Kind: wire.KindUpgrade,
		Meta: map[string]string{upgradeNodeKey: node},
	})
	return err == nil && resp.Kind == wire.KindResponse && resp.Meta[upgradedKey] == "true"
}

// RefuseUpgrade returns the "not upgraded" answer when m is an upgrade
// handshake and nil otherwise. Endpoints that wrap another endpoint
// (rebinding, sealing) answer with it instead of forwarding: what they
// wrap may change or sit behind a transformation, so the linkage is
// not theirs to short-circuit. Transports call it before dispatch, so
// a handshake arriving over a connection never reaches a handler.
func RefuseUpgrade(m *wire.Message) *wire.Message {
	if m.Kind != wire.KindUpgrade {
		return nil
	}
	return upgradeReply(m, "false")
}

func upgradeReply(m *wire.Message, upgraded string) *wire.Message {
	return &wire.Message{
		Kind: wire.KindResponse, ID: m.ID,
		Meta: map[string]string{upgradedKey: upgraded},
	}
}
