package smock

import (
	"fmt"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/property"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// InstallOrder tells a node wrapper to instantiate a component and
// connect it to its providers.
type InstallOrder struct {
	// Component names the factory to activate.
	Component string
	// InstanceID names the instance.
	InstanceID string
	// Config carries factored property bindings.
	Config property.Set
	// State is the optional serialized state snapshot.
	State []byte
	// Upstreams maps required interface names to provider addresses.
	Upstreams map[string]string
	// UpstreamSecrets maps required interface names to edge secrets.
	UpstreamSecrets map[string][]byte
	// ServeSecret is the secret shared with this instance's client.
	ServeSecret []byte
}

// NodeWrapper is the per-node agent that installs, connects, and hosts
// component instances ("wrappers running on each node facilitate remote
// installation"). It serves installed components on the node's
// transport and accepts remote install orders as KindInstall messages.
type NodeWrapper struct {
	node netmodel.NodeID
	tr   transport.Transport
	reg  *Registry
	clk  transport.Clock

	mu          sync.Mutex
	listeners   map[string]transport.Listener // instanceID -> listener
	addrs       map[string]string             // instanceID -> address
	control     transport.Listener            // ServeControl listener, if any
	controlAddr string                        // survives Close: probes must keep targeting a crashed node
}

// NewNodeWrapper returns a wrapper for one node.
func NewNodeWrapper(node netmodel.NodeID, tr transport.Transport, reg *Registry, clk transport.Clock) *NodeWrapper {
	return &NodeWrapper{
		node: node, tr: tr, reg: reg, clk: clk,
		listeners: map[string]transport.Listener{},
		addrs:     map[string]string{},
	}
}

// Node returns the wrapper's node.
func (w *NodeWrapper) Node() netmodel.NodeID { return w.node }

// Install activates a component per the order: it dials the upstream
// providers, activates the factory, and serves the instance's handler,
// returning the address clients should dial. A provider this wrapper
// hosts itself is linked in process: the listener of every instance is
// tagged with the node, and each upstream endpoint is offered the
// co-location handshake (transport.Upgrade), which only an endpoint to
// a listener tagged with the same node accepts.
func (w *NodeWrapper) Install(order InstallOrder) (string, error) {
	ctx := &ActivationContext{
		InstanceID:      order.InstanceID,
		Node:            w.node,
		Config:          order.Config,
		State:           order.State,
		Upstreams:       map[string]transport.Endpoint{},
		UpstreamSecrets: order.UpstreamSecrets,
		ServeSecret:     order.ServeSecret,
		Clock:           w.clk,
	}
	for iface, addr := range order.Upstreams {
		ep, err := w.tr.Dial(addr)
		if err != nil {
			return "", fmt.Errorf("smock: wrapper %s: dialing %s provider %s: %w", w.node, iface, addr, err)
		}
		transport.Upgrade(ep, string(w.node))
		ctx.Upstreams[iface] = ep
	}
	h, err := w.reg.Activate(order.Component, ctx)
	if err != nil {
		return "", err
	}
	ln, err := w.tr.Serve("", h)
	if err != nil {
		return "", fmt.Errorf("smock: wrapper %s: serving %s: %w", w.node, order.InstanceID, err)
	}
	transport.TagNode(ln, string(w.node))
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.listeners[order.InstanceID]; dup {
		ln.Close()
		return "", fmt.Errorf("smock: wrapper %s: instance %q already installed", w.node, order.InstanceID)
	}
	w.listeners[order.InstanceID] = ln
	w.addrs[order.InstanceID] = ln.Addr()
	return ln.Addr(), nil
}

// AddrOf returns the serving address of an installed instance.
func (w *NodeWrapper) AddrOf(instanceID string) (string, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	addr, ok := w.addrs[instanceID]
	return addr, ok
}

// Instances returns the number of hosted instances.
func (w *NodeWrapper) Instances() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.listeners)
}

// Uninstall stops serving an instance.
func (w *NodeWrapper) Uninstall(instanceID string) error {
	w.mu.Lock()
	ln, ok := w.listeners[instanceID]
	delete(w.listeners, instanceID)
	delete(w.addrs, instanceID)
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("smock: wrapper %s: no instance %q", w.node, instanceID)
	}
	return ln.Close()
}

// Close stops all hosted instances and the control listener: the whole
// node goes dark, exactly what a crash looks like from the outside.
func (w *NodeWrapper) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, ln := range w.listeners {
		ln.Close()
		delete(w.listeners, id)
		delete(w.addrs, id)
	}
	if w.control != nil {
		w.control.Close()
		w.control = nil
	}
	return nil
}

// ServeControl serves the wrapper's own handler (remote installs and
// status probes) on the node's transport and returns its address. This
// is the per-node probe target for failure detection: any answer means
// the node is alive, independent of which components it hosts. Calling
// it again returns the existing address.
func (w *NodeWrapper) ServeControl() (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.control != nil {
		return w.controlAddr, nil
	}
	ln, err := w.tr.Serve("", w.Handler())
	if err != nil {
		return "", fmt.Errorf("smock: wrapper %s: serving control: %w", w.node, err)
	}
	w.control = ln
	w.controlAddr = ln.Addr()
	return w.controlAddr, nil
}

// ControlAddr returns the control address, or "" if ServeControl was
// never called. It keeps answering after Close: a failure detector must
// go on probing a crashed node's last known address — that the probes
// now fail is exactly the signal.
func (w *NodeWrapper) ControlAddr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.controlAddr
}

// Handler exposes the wrapper itself over the transport: KindInstall
// messages carry encoded install orders (remote installation), and
// "status" requests answer liveness probes with the node name and its
// hosted-instance count.
func (w *NodeWrapper) Handler() transport.Handler {
	return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		if m.Kind == wire.KindRequest && m.Method == "status" {
			return &wire.Message{
				Kind: wire.KindResponse, ID: m.ID,
				Meta: map[string]string{
					"node":      string(w.node),
					"instances": fmt.Sprint(w.Instances()),
				},
			}
		}
		if m.Kind != wire.KindInstall {
			return transport.ErrorResponse(m, "wrapper %s: unexpected kind %v", w.node, m.Kind)
		}
		order, err := decodeInstallOrder(m.Body)
		if err != nil {
			return transport.ErrorResponse(m, "wrapper %s: %v", w.node, err)
		}
		addr, err := w.Install(order)
		if err != nil {
			return transport.ErrorResponse(m, "%v", err)
		}
		return &wire.Message{
			Kind: wire.KindResponse, ID: m.ID,
			Meta: map[string]string{"addr": addr},
		}
	})
}

// encodeInstallOrder serializes an order for remote wrappers.
func encodeInstallOrder(o InstallOrder) ([]byte, error) {
	config := map[string]any{}
	for name, v := range o.Config {
		config[name] = v.String()
	}
	ups := map[string]any{}
	for iface, addr := range o.Upstreams {
		ups[iface] = addr
	}
	secrets := map[string]any{}
	for iface, sec := range o.UpstreamSecrets {
		secrets[iface] = sec
	}
	return wire.Marshal(map[string]any{
		"component": o.Component,
		"instance":  o.InstanceID,
		"config":    config,
		"state":     o.State,
		"upstreams": ups,
		"secrets":   secrets,
		"serve":     o.ServeSecret,
	})
}

func decodeInstallOrder(data []byte) (InstallOrder, error) {
	v, err := wire.Unmarshal(data)
	if err != nil {
		return InstallOrder{}, err
	}
	f, ok := v.(map[string]any)
	if !ok {
		return InstallOrder{}, fmt.Errorf("install order is %T", v)
	}
	o := InstallOrder{Config: property.Set{}, Upstreams: map[string]string{}, UpstreamSecrets: map[string][]byte{}}
	o.Component, _ = f["component"].(string)
	o.InstanceID, _ = f["instance"].(string)
	if o.Component == "" || o.InstanceID == "" {
		return InstallOrder{}, fmt.Errorf("install order missing component or instance")
	}
	if cfg, ok := f["config"].(map[string]any); ok {
		for name, raw := range cfg {
			s, ok := raw.(string)
			if !ok {
				return InstallOrder{}, fmt.Errorf("config %q is %T", name, raw)
			}
			o.Config[name] = property.Parse(s)
		}
	}
	o.State, _ = f["state"].([]byte)
	if ups, ok := f["upstreams"].(map[string]any); ok {
		for iface, raw := range ups {
			s, ok := raw.(string)
			if !ok {
				return InstallOrder{}, fmt.Errorf("upstream %q is %T", iface, raw)
			}
			o.Upstreams[iface] = s
		}
	}
	if secs, ok := f["secrets"].(map[string]any); ok {
		for iface, raw := range secs {
			b, ok := raw.([]byte)
			if !ok {
				return InstallOrder{}, fmt.Errorf("secret %q is %T", iface, raw)
			}
			o.UpstreamSecrets[iface] = b
		}
	}
	o.ServeSecret, _ = f["serve"].([]byte)
	return o, nil
}

// RemoteInstall sends an install order to a wrapper served at addr.
func RemoteInstall(tr transport.Transport, addr string, order InstallOrder) (string, error) {
	ep, err := tr.Dial(addr)
	if err != nil {
		return "", err
	}
	defer ep.Close()
	body, err := encodeInstallOrder(order)
	if err != nil {
		return "", err
	}
	resp, err := ep.Call(&wire.Message{Kind: wire.KindInstall, Body: body})
	if err != nil {
		return "", err
	}
	if err := transport.AsError(resp); err != nil {
		return "", err
	}
	if resp.Meta == nil || resp.Meta["addr"] == "" {
		return "", fmt.Errorf("smock: wrapper at %s returned no address", addr)
	}
	return resp.Meta["addr"], nil
}
