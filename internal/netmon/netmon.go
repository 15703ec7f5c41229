// Package netmon is the network-monitoring substrate the paper's
// Section 6 calls for ("the framework be integrated with network
// monitoring tools such as Remos, which obtain relevant information
// about the state of the network and communicate it to network-aware
// applications through a well-defined and uniform set of APIs").
//
// A Monitor owns mutations to a netmodel.Network: reports of changed
// link or node characteristics are applied through it, and subscribers
// (typically an adaptation loop around planner.Replan) are notified
// with a summary of what changed. The monitor also bridges the trust
// layer: re-running credential translation on demand lets dRBAC
// revocations surface as property changes.
package netmon

import (
	"fmt"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
)

// Change describes one observed difference in the network.
type Change struct {
	// Kind is "node" or "link".
	Kind string
	// Subject identifies the changed element ("sd-2" or "ny-1~sd-1").
	Subject string
	// Field names what changed (a property name, "latency",
	// "bandwidth", "secure").
	Field string
	// Old and New are the before/after values rendered as strings.
	Old, New string
}

// String renders the change compactly.
func (c Change) String() string {
	return fmt.Sprintf("%s %s: %s %s -> %s", c.Kind, c.Subject, c.Field, c.Old, c.New)
}

// Subscriber receives batched change notifications.
type Subscriber func(changes []Change)

// Monitor applies and broadcasts network state changes.
type Monitor struct {
	mu   sync.Mutex
	net  *netmodel.Network
	subs []Subscriber
}

// New returns a monitor over a network.
func New(net *netmodel.Network) *Monitor {
	return &Monitor{net: net}
}

// Network returns the network the monitor mutates.
func (m *Monitor) Network() *netmodel.Network { return m.net }

// Subscribe registers a notification callback. Callbacks run
// synchronously, in registration order, under the monitor's report
// call.
func (m *Monitor) Subscribe(s Subscriber) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, s)
}

func (m *Monitor) notify(changes []Change) {
	m.notifyInvalidate(changes, m.net.InvalidateRoutes)
}

// notifyInvalidate runs the supplied route invalidation before
// subscribers: an adaptation loop replanning from inside its callback
// must see the post-change shortest paths, never an epoch-stale route.
// Link-figure reports pass the copy-on-write delta invalidator so a
// single link event does not discard every cached shortest-path tree.
func (m *Monitor) notifyInvalidate(changes []Change, invalidate func()) {
	if len(changes) == 0 {
		return
	}
	invalidate()
	for _, s := range m.subs {
		s(changes)
	}
}

// ReportNodeProps applies new service-relevant properties to a node
// (e.g. a re-translated TrustLevel after a credential revocation) and
// notifies subscribers of the differences.
func (m *Monitor) ReportNodeProps(id netmodel.NodeID, props property.Set) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.net.Node(id)
	if !ok {
		return fmt.Errorf("netmon: unknown node %q", id)
	}
	var changes []Change
	for name, v := range props {
		old, had := node.Props[name]
		if had && old.Equal(v) {
			continue
		}
		oldStr := "<unset>"
		if had {
			oldStr = old.String()
		}
		changes = append(changes, Change{
			Kind: "node", Subject: string(id), Field: name, Old: oldStr, New: v.String(),
		})
		node.Props[name] = v
	}
	m.notify(changes)
	return nil
}

// ReportNodeDown marks a node as crashed/unreachable and notifies
// subscribers. Down nodes cannot host placements and their links drop
// out of routing; an adaptation loop replanning from the notification
// evicts every instance placed there. Reporting an already-down node is
// a no-op (failure detectors may confirm a suspicion many times).
func (m *Monitor) ReportNodeDown(id netmodel.NodeID) error {
	return m.reportLiveness(id, true)
}

// ReportNodeUp clears a node's down mark (the node rejoined the
// network) and notifies subscribers.
func (m *Monitor) ReportNodeUp(id netmodel.NodeID) error {
	return m.reportLiveness(id, false)
}

func (m *Monitor) reportLiveness(id netmodel.NodeID, down bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.net.Node(id)
	if !ok {
		return fmt.Errorf("netmon: unknown node %q", id)
	}
	if node.Down == down {
		return nil
	}
	node.Down = down
	// The change is rendered as the node's "up" state: before the
	// transition the node was up exactly when it is now going down.
	m.notify([]Change{{
		Kind: "node", Subject: string(id), Field: "up",
		Old: fmt.Sprint(down), New: fmt.Sprint(!down),
	}})
	return nil
}

// ReportLink applies new link characteristics. Negative latency or
// bandwidth values mean "unchanged"; secure may be nil for unchanged.
func (m *Monitor) ReportLink(a, b netmodel.NodeID, latencyMS, bandwidthMbps float64, secure *bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	link, ok := m.net.Link(a, b)
	if !ok {
		return fmt.Errorf("netmon: unknown link %s~%s", a, b)
	}
	subject := fmt.Sprintf("%s~%s", a, b)
	var changes []Change
	if latencyMS >= 0 && latencyMS != link.LatencyMS {
		changes = append(changes, Change{
			Kind: "link", Subject: subject, Field: "latency",
			Old: fmt.Sprint(link.LatencyMS), New: fmt.Sprint(latencyMS),
		})
		link.LatencyMS = latencyMS
	}
	if bandwidthMbps >= 0 && bandwidthMbps != link.BandwidthMbps {
		changes = append(changes, Change{
			Kind: "link", Subject: subject, Field: "bandwidth",
			Old: fmt.Sprint(link.BandwidthMbps), New: fmt.Sprint(bandwidthMbps),
		})
		link.BandwidthMbps = bandwidthMbps
	}
	secureChanged := false
	if secure != nil && *secure != link.Secure {
		secureChanged = true
		changes = append(changes, Change{
			Kind: "link", Subject: subject, Field: "secure",
			Old: fmt.Sprint(link.Secure), New: fmt.Sprint(*secure),
		})
		link.Secure = *secure
		link.Props["Confidentiality"] = property.Bool(*secure)
	}
	if secureChanged {
		// Property mutation aliases maps the route cache may share;
		// only a full invalidation is safe.
		m.notify(changes)
	} else {
		m.notifyInvalidate(changes, func() { m.net.InvalidateRoutesLinkDelta(a, b) })
	}
	return nil
}

// Retranslate re-runs credential translation over the whole network and
// reports every resulting property change: the bridge from the trust
// layer's continuous credential monitoring ("the dRBAC implementation
// takes responsibility for continuous monitoring of credential
// validity") to the planner's view of the world. Unlike
// netmodel.Network.Translate, re-translation REPLACES previously
// translated values (a revoked credential must lower a trust level).
func (m *Monitor) Retranslate(nodeFn netmodel.TranslationFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var changes []Change
	for _, node := range m.net.Nodes() {
		if nodeFn == nil {
			continue
		}
		fresh := nodeFn(node.Credentials)
		for name, v := range fresh {
			old, had := node.Props[name]
			if had && old.Equal(v) {
				continue
			}
			oldStr := "<unset>"
			if had {
				oldStr = old.String()
			}
			changes = append(changes, Change{
				Kind: "node", Subject: string(node.ID), Field: name, Old: oldStr, New: v.String(),
			})
			node.Props[name] = v
		}
		// Properties the translation no longer produces are withdrawn.
		for name, old := range node.Props {
			if _, still := fresh[name]; !still {
				changes = append(changes, Change{
					Kind: "node", Subject: string(node.ID), Field: name, Old: old.String(), New: "<unset>",
				})
				delete(node.Props, name)
			}
		}
	}
	m.notify(changes)
}
