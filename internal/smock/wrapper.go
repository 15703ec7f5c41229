package smock

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
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
	hosted      map[string]hosted  // instanceID -> what the wrapper opened for it
	control     transport.Listener // ServeControl listener, if any
	controlAddr string             // survives Close: probes must keep targeting a crashed node
}

// hosted is what a wrapper opened for one instance: the listener it
// serves on and the endpoints it dialed to the instance's providers.
// The wrapper owns both and closes both when the instance goes.
type hosted struct {
	ln        transport.Listener
	addr      string
	upstreams []transport.Endpoint
}

// close stops serving the instance, then releases its provider links.
func (h hosted) close() error {
	err := h.ln.Close()
	closeAll(h.upstreams)
	return err
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// NewNodeWrapper returns a wrapper for one node.
func NewNodeWrapper(node netmodel.NodeID, tr transport.Transport, reg *Registry, clk transport.Clock) *NodeWrapper {
	return &NodeWrapper{
		node: node, tr: tr, reg: reg, clk: clk,
		hosted: map[string]hosted{},
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
// a listener tagged with the same node accepts. A failed install closes
// every endpoint it dialed.
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
	var inst hosted
	for iface, addr := range order.Upstreams {
		ep, err := w.tr.Dial(addr)
		if err != nil {
			closeAll(inst.upstreams)
			return "", fmt.Errorf("smock: wrapper %s: dialing %s provider %s: %w", w.node, iface, addr, err)
		}
		inst.upstreams = append(inst.upstreams, ep)
		transport.Upgrade(ep, string(w.node))
		ctx.Upstreams[iface] = ep
	}
	h, err := w.reg.Activate(order.Component, ctx)
	if err != nil {
		closeAll(inst.upstreams)
		return "", err
	}
	if inst.ln, err = w.tr.Serve("", h); err != nil {
		closeAll(inst.upstreams)
		return "", fmt.Errorf("smock: wrapper %s: serving %s: %w", w.node, order.InstanceID, err)
	}
	transport.TagNode(inst.ln, string(w.node))
	inst.addr = inst.ln.Addr()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.hosted[order.InstanceID]; dup {
		inst.close()
		return "", fmt.Errorf("smock: wrapper %s: instance %q already installed", w.node, order.InstanceID)
	}
	w.hosted[order.InstanceID] = inst
	return inst.addr, nil
}

// Instances returns the number of hosted instances.
func (w *NodeWrapper) Instances() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.hosted)
}

// Uninstall stops serving an instance and closes the endpoints Install
// dialed for it.
func (w *NodeWrapper) Uninstall(instanceID string) error {
	w.mu.Lock()
	inst, ok := w.hosted[instanceID]
	delete(w.hosted, instanceID)
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("smock: wrapper %s: no instance %q", w.node, instanceID)
	}
	return inst.close()
}

// Close stops all hosted instances and the control listener: the whole
// node goes dark, exactly what a crash looks like from the outside.
func (w *NodeWrapper) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, inst := range w.hosted {
		inst.close()
		delete(w.hosted, id)
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

// An install order travels as a KindInstall body in a typed layout:
//
//	component instance count:u32 (name kind:u8 value)... state
//	count:u32 (iface addr)... count:u32 (iface secret)... serve
//
// A config value is a bool byte, an i64 or a string, by its
// property.Kind, so it arrives as the kind it was sent. Every list is in
// strictly ascending key order, the only order decodeInstallOrder
// accepts, so an order it accepts re-encodes to the same bytes.

// appendInstallOrder appends the encoding of o to b.
func appendInstallOrder(b []byte, o *InstallOrder) []byte {
	b = wire.AppendString(wire.AppendString(b, o.Component), o.InstanceID)
	b = wire.AppendString(appendPairs(b, o.Config, appendValue), o.State)
	b = appendPairs(b, o.Upstreams, wire.AppendString[string])
	b = appendPairs(b, o.UpstreamSecrets, wire.AppendString[[]byte])
	return wire.AppendString(b, o.ServeSecret)
}

func appendValue(b []byte, v property.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case property.KindBool:
		if x, _ := v.AsBool(); x {
			return append(b, 1)
		}
		return append(b, 0)
	case property.KindInt:
		i, _ := v.AsInt()
		return binary.BigEndian.AppendUint64(b, uint64(i))
	case property.KindString:
		s, _ := v.AsString()
		return wire.AppendString(b, s)
	}
	return b
}

// appendPairs appends m as a count and its entries in key order, each
// value written by put.
func appendPairs[V any](b []byte, m map[string]V, put func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = put(wire.AppendString(b, k), m[k])
	}
	return b
}

// decodeInstallOrder reads an order. Nothing in it aliases data, which
// the transport recycles once the handler returns.
func decodeInstallOrder(data []byte) (InstallOrder, error) {
	r := wire.NewReader(data)
	o := InstallOrder{Component: r.Text(), InstanceID: r.Text()}
	// A config entry is at least a name's length word and a kind byte;
	// a string pair is at least two length words.
	o.Config = readPairs(&r, 5, readValue)
	o.State = readBytes(&r)
	o.Upstreams = readPairs(&r, 8, (*wire.Reader).Text)
	o.UpstreamSecrets = readPairs(&r, 8, readBytes)
	o.ServeSecret = readBytes(&r)
	if err := r.Done(); err != nil {
		return InstallOrder{}, fmt.Errorf("install order: %w", err)
	}
	if o.Component == "" || o.InstanceID == "" {
		return InstallOrder{}, fmt.Errorf("install order missing component or instance")
	}
	return o, nil
}

func readValue(r *wire.Reader) property.Value {
	switch kind := property.Kind(r.Byte()); kind {
	case property.KindBool:
		switch r.Byte() {
		case 0:
			return property.Bool(false)
		case 1:
			return property.Bool(true)
		}
		r.Fail(fmt.Errorf("config bool is neither 0 nor 1"))
	case property.KindInt:
		return property.Int(int64(r.Uint64()))
	case property.KindString:
		return property.Str(r.Text())
	default:
		r.Fail(fmt.Errorf("config value of unknown kind %d", kind))
	}
	return property.Value{}
}

func readBytes(r *wire.Reader) []byte { return bytes.Clone(r.Bytes()) }

// readPairs reads what appendPairs wrote, each value read by get. An
// entry takes at least minSize bytes, and keys must ascend strictly.
func readPairs[V any](r *wire.Reader, minSize int, get func(*wire.Reader) V) map[string]V {
	n := r.Count(minSize)
	m := make(map[string]V, n)
	for i, prev := 0, ""; i < n; i++ {
		k := r.Text()
		if i > 0 && k <= prev {
			r.Fail(fmt.Errorf("key %q out of order", k))
		}
		m[k], prev = get(r), k
	}
	return m
}

// RemoteInstall sends an install order to a wrapper served at addr.
func RemoteInstall(tr transport.Transport, addr string, order InstallOrder) (string, error) {
	ep, err := tr.Dial(addr)
	if err != nil {
		return "", err
	}
	defer ep.Close()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindInstall, Body: appendInstallOrder(nil, &order)})
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
