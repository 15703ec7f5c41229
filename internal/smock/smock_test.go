package smock_test

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/seccrypto"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// world is a full single-process case study: topology, wrappers on
// every node, the mail factories, a pre-deployed primary in New York,
// a generic server, and a lookup service — Figure 1 end to end.
type world struct {
	tr      transport.Transport
	keys    *seccrypto.KeyRing
	primary *mail.Server
	engine  *smock.Engine
	gs      *smock.GenericServer
	lookup  *smock.Lookup
}

func newWorld(t *testing.T) *world {
	t.Helper()
	return newWorldOn(t, transport.NewInProc())
}

// newWorldOn builds the case-study world over any transport; the TCP
// variant runs every component behind real sockets.
func newWorldOn(t *testing.T, tr transport.Transport) *world {
	t.Helper()
	w := &world{tr: tr, keys: seccrypto.NewKeyRing()}
	clock := transport.NewRealClock()
	w.primary = mail.NewServer(w.keys, clock)
	for _, u := range []string{"Alice", "Bob", "Carol"} {
		if err := w.primary.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
	}
	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: w.primary, Keys: w.keys}); err != nil {
		t.Fatal(err)
	}
	if reg.Components() != 6 {
		t.Fatalf("expected 6 factories, got %d", reg.Components())
	}

	net := topology.CaseStudy()
	w.engine = smock.NewEngine(w.tr)
	var nyWrapper *smock.NodeWrapper
	for _, node := range net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, w.tr, reg, clock)
		w.engine.RegisterWrapper(wr)
		if node.ID == topology.NYServer {
			nyWrapper = wr
		}
	}

	// Pre-deploy the primary MailServer in New York (case-study
	// constraint 1) and adopt it.
	addr, err := nyWrapper.Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := spec.MailService()
	pl := planner.New(svc, net)
	msPlace, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(msPlace)
	w.engine.AdoptInstance(msPlace, addr)

	w.gs = smock.NewGenericServer(svc, pl, w.engine)
	ln, err := w.tr.Serve("", w.gs.Handler())
	if err != nil {
		t.Fatal(err)
	}
	w.lookup = smock.NewLookup()
	if err := w.lookup.Register(smock.Entry{
		Service: "mail", Attrs: map[string]string{"type": "mail", "secure": "yes"},
		ServerAddr: ln.Addr(),
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// proxyFor runs the lookup + generic-proxy handshake for a client.
func (w *world) proxyFor(t *testing.T, node netmodel.NodeID, user string) *smock.GenericProxy {
	t.Helper()
	proxy, err := smock.NewGenericProxy(w.tr, w.lookup, "mail", map[string]string{"type": "mail"})
	if err != nil {
		t.Fatal(err)
	}
	proxy.Interface = spec.IfaceClient
	proxy.Node = node
	proxy.User = user
	proxy.RateRPS = 50
	return proxy
}

// TestFigure1FlowNewYork: the NY client gets a direct MailClient ->
// MailServer deployment and full mail semantics through the proxy.
func TestFigure1FlowNewYork(t *testing.T) {
	w := newWorld(t)
	proxy := w.proxyFor(t, topology.NYClient, "Alice")
	defer proxy.Close()

	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	if _, err := alice.Send("Bob", "hello", []byte("from ny"), 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(proxy.Deployment, "MailClient@ny-2") ||
		!strings.Contains(proxy.Deployment, "MailServer@ny-1*") {
		t.Errorf("NY deployment = %s", proxy.Deployment)
	}
	if strings.Contains(proxy.Deployment, "ViewMailServer") {
		t.Errorf("NY must not cache: %s", proxy.Deployment)
	}
	if w.primary.Store().InboxCount("Bob") != 1 {
		t.Error("send must reach the primary")
	}
	// Full client features work end to end.
	if err := alice.AddContact("Bob"); err != nil {
		t.Fatal(err)
	}
	contacts, err := alice.Contacts()
	if err != nil || len(contacts) != 1 {
		t.Errorf("contacts = %v, %v", contacts, err)
	}
}

// TestFigure1FlowSanDiego: the SD client is served through a local
// view and an encryptor tunnel; mail round-trips with end-to-end
// decryption at the client.
func TestFigure1FlowSanDiego(t *testing.T) {
	w := newWorld(t)
	proxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer proxy.Close()

	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	if _, err := alice.Send("Bob", "over the tunnel", []byte("sd payload"), 3); err != nil {
		t.Fatal(err)
	}
	dep := proxy.Deployment
	for _, want := range []string{
		"MailClient@sd-2", "ViewMailServer@sd-2{TrustLevel=4}",
		"Encryptor@sd-2", "Decryptor@ny-1", "MailServer@ny-1*",
	} {
		if !strings.Contains(dep, want) {
			t.Errorf("SD deployment missing %s: %s", want, dep)
		}
	}
	// Write-through view: the primary sees the send immediately.
	if w.primary.Store().InboxCount("Bob") != 1 {
		t.Error("send must reach the primary through view + tunnel")
	}
	// A message sent at the primary propagates down; Alice receives both
	// directions through her proxy.
	if _, err := w.primary.Send("Bob", "Alice", "reply", []byte("from ny"), 2); err != nil {
		t.Fatal(err)
	}
	msgs, err := alice.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Body) != "from ny" {
		t.Errorf("alice inbox = %v", msgs)
	}
}

// TestFigure1FlowSeattleIncrementalAndRestricted: after the SD client,
// the Seattle partner user gets a restricted client chained to the SD
// view; the address book is unavailable.
func TestFigure1FlowSeattleIncrementalAndRestricted(t *testing.T) {
	w := newWorld(t)
	sdProxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer sdProxy.Close()
	aliceSD := mail.NewClient("Alice", w.keys, mail.NewRemote(sdProxy))
	if _, err := aliceSD.Send("Bob", "warm up", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}

	seaProxy := w.proxyFor(t, topology.SeaClient, "Carol")
	defer seaProxy.Close()
	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(seaProxy))
	if _, err := carol.Send("Alice", "hello", []byte("from seattle"), 2); err != nil {
		t.Fatal(err)
	}
	dep := seaProxy.Deployment
	for _, want := range []string{
		"ViewMailClient@sea-2", "ViewMailServer@sea-2{TrustLevel=2}",
		"Encryptor@sea-2", "Decryptor@sd-2", "ViewMailServer@sd-2{TrustLevel=4}*",
	} {
		if !strings.Contains(dep, want) {
			t.Errorf("Seattle deployment missing %s: %s", want, dep)
		}
	}
	if w.primary.Store().InboxCount("Alice") != 1 {
		t.Error("Seattle send must reach the primary through the chained views")
	}
	// The restricted object view rejects address-book calls.
	restricted := mail.NewRemote(seaProxy)
	if err := restricted.AddContact("Carol", "Alice"); err == nil {
		t.Error("ViewMailClient must reject addContact")
	}
}

// TestSecondClientReusesDeployment: a second SD client binds without
// installing anything new.
func TestSecondClientReusesDeployment(t *testing.T) {
	w := newWorld(t)
	first := w.proxyFor(t, topology.SDClient, "Alice")
	defer first.Close()
	a := mail.NewClient("Alice", w.keys, mail.NewRemote(first))
	if _, err := a.Send("Bob", "s", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
	before := w.engine.InstanceCount()
	second := w.proxyFor(t, topology.SDClient, "Alice")
	defer second.Close()
	b := mail.NewClient("Alice", w.keys, mail.NewRemote(second))
	if _, err := b.Send("Bob", "s2", []byte("y"), 2); err != nil {
		t.Fatal(err)
	}
	if after := w.engine.InstanceCount(); after != before {
		t.Errorf("second client must reuse instances: %d -> %d", before, after)
	}
}

// TestProxyErrorsSurfaceFromPlanner: an impossible request reports the
// planner failure through the proxy.
func TestProxyErrorsSurfaceFromPlanner(t *testing.T) {
	w := newWorld(t)
	proxy := w.proxyFor(t, topology.SeaClient, "Carol")
	proxy.RateRPS = 1e9
	defer proxy.Close()
	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(proxy))
	if _, err := carol.Send("Alice", "s", []byte("x"), 2); err == nil {
		t.Error("infeasible rate must surface an error")
	}
}

// TestLookupService covers attribute matching and the transport
// handler.
func TestLookupService(t *testing.T) {
	l := smock.NewLookup()
	if err := l.Register(smock.Entry{Service: "mail", ServerAddr: "a", Attrs: map[string]string{"x": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(smock.Entry{Service: "video", ServerAddr: "b", Attrs: map[string]string{"x": "2"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(smock.Entry{}); err == nil {
		t.Error("empty registration must fail")
	}
	if got := l.Find("", nil); len(got) != 2 {
		t.Errorf("find all = %d", len(got))
	}
	if got := l.Find("", map[string]string{"x": "2"}); len(got) != 1 || got[0].Service != "video" {
		t.Errorf("attr find = %v", got)
	}
	if got := l.Find("mail", map[string]string{"x": "2"}); len(got) != 0 {
		t.Errorf("conflicting find = %v", got)
	}
	// Re-registration replaces.
	if err := l.Register(smock.Entry{Service: "mail", ServerAddr: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := l.Find("mail", nil); len(got) != 1 || got[0].ServerAddr != "c" {
		t.Errorf("replaced entry = %v", got)
	}
}

// TestRegistryValidation covers factory registration errors.
func TestRegistryValidation(t *testing.T) {
	reg := smock.NewRegistry()
	if err := reg.Register("", nil); err == nil {
		t.Error("empty registration must fail")
	}
	f := func(*smock.ActivationContext) (transport.Handler, error) { return nil, nil }
	if err := reg.Register("c", f); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("c", f); err == nil {
		t.Error("duplicate registration must fail")
	}
	if _, err := reg.Activate("ghost", &smock.ActivationContext{}); err == nil {
		t.Error("unknown component must fail")
	}
}

// TestRemoteInstallOverTransport exercises the KindInstall path.
func TestRemoteInstallOverTransport(t *testing.T) {
	tr := transport.NewInProc()
	reg := smock.NewRegistry()
	echo := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
	})
	if err := reg.Register("Echo", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		return echo, nil
	}); err != nil {
		t.Fatal(err)
	}
	w := smock.NewNodeWrapper("n1", tr, reg, transport.NewRealClock())
	ln, err := tr.Serve("wrapper-n1", w.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	addr, err := smock.RemoteInstall(tr, "wrapper-n1", smock.InstallOrder{
		Component: "Echo", InstanceID: "echo#1",
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Body: []byte("ping")})
	if err != nil || string(resp.Body) != "ping" {
		t.Errorf("remote-installed echo = %+v, %v", resp, err)
	}
	if w.Instances() != 1 {
		t.Errorf("instances = %d", w.Instances())
	}
	if _, got := w.AddrOf("echo#1"); !got {
		t.Error("AddrOf must resolve")
	}
	// Duplicate instance IDs are rejected; uninstall frees the slot.
	if _, err := w.Install(smock.InstallOrder{Component: "Echo", InstanceID: "echo#1"}); err == nil {
		t.Error("duplicate instance must fail")
	}
	if err := w.Uninstall("echo#1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Uninstall("echo#1"); err == nil {
		t.Error("double uninstall must fail")
	}
	// Bad orders surface errors.
	if _, err := smock.RemoteInstall(tr, "wrapper-n1", smock.InstallOrder{Component: "Ghost", InstanceID: "g#1"}); err == nil {
		t.Error("unknown component must fail remotely")
	}
}

// TestFigure1FlowOverTCP runs the San Diego case over real TCP sockets:
// every component instance, the generic server, and the encryptor
// tunnel listen on 127.0.0.1 ports, proving the runtime is not bound to
// the in-process transport.
func TestFigure1FlowOverTCP(t *testing.T) {
	w := newWorldOn(t, transport.NewTCP())
	proxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer proxy.Close()

	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	if _, err := alice.Send("Bob", "tcp", []byte("over sockets"), 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(proxy.Deployment, "Encryptor@sd-2") {
		t.Errorf("TCP deployment = %s", proxy.Deployment)
	}
	if w.primary.Store().InboxCount("Bob") != 1 {
		t.Error("send must reach the primary over TCP")
	}
	bob := mail.NewClient("Bob", w.keys, w.primary)
	msgs, err := bob.Receive()
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "over sockets" {
		t.Fatalf("receive = %v, %v", msgs, err)
	}
}

// TestInstallOrderCodecRoundTrip covers the install-order wire codec,
// including config, upstreams, secrets, and state.
func TestInstallOrderCodecAndRemoteSecrets(t *testing.T) {
	tr := transport.NewInProc()
	reg := smock.NewRegistry()
	var gotCtx *smock.ActivationContext
	err := reg.Register("Probe", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		gotCtx = ctx
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("Up", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
		}), nil
	}); err != nil {
		t.Fatal(err)
	}
	w := smock.NewNodeWrapper("n1", tr, reg, transport.NewRealClock())
	ln, err := tr.Serve("wrap", w.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	upAddr, err := w.Install(smock.InstallOrder{Component: "Up", InstanceID: "up#1"})
	if err != nil {
		t.Fatal(err)
	}
	// Every config value arrives as the kind it was sent: a string that
	// reads like a number or a Boolean stays a string.
	config := property.Set{
		"TrustLevel": property.Int(3), "Flag": property.Bool(false), "On": property.Bool(true),
		"User": property.Str("42"), "Mode": property.Str("T"),
	}
	_, err = smock.RemoteInstall(tr, "wrap", smock.InstallOrder{
		Component:  "Probe",
		InstanceID: "probe#1",
		Config:     config,
		State:      []byte("snapshot"),
		Upstreams:  map[string]string{"I": upAddr},
		UpstreamSecrets: map[string][]byte{
			"I": {1, 2, 3},
		},
		ServeSecret: []byte{9, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotCtx == nil {
		t.Fatal("factory not invoked")
	}
	if len(gotCtx.Config) != len(config) {
		t.Errorf("config = %v, want %v", gotCtx.Config, config)
	}
	for name, want := range config {
		if got := gotCtx.Config[name]; !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("config %s = %v (%v), want %v (%v)", name, got, got.Kind(), want, want.Kind())
		}
	}
	if string(gotCtx.State) != "snapshot" {
		t.Errorf("state = %q", gotCtx.State)
	}
	if len(gotCtx.Upstreams) != 1 || gotCtx.Upstreams["I"] == nil {
		t.Errorf("upstreams = %v", gotCtx.Upstreams)
	}
	if string(gotCtx.UpstreamSecrets["I"]) != "\x01\x02\x03" || string(gotCtx.ServeSecret) != "\x09\x09" {
		t.Errorf("secrets = %v / %v", gotCtx.UpstreamSecrets, gotCtx.ServeSecret)
	}
	// Wrapper introspection and shutdown.
	if _, ok := w.AddrOf("probe#1"); !ok {
		t.Error("AddrOf(probe#1)")
	}
	if w.Instances() != 2 {
		t.Errorf("instances = %d", w.Instances())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Instances() != 0 {
		t.Error("Close must uninstall everything")
	}
	// The wrapper handler rejects non-install messages and bad orders.
	resp := w.Handler().Handle(&wire.Message{Kind: wire.KindRequest})
	if transport.AsError(resp) == nil {
		t.Error("non-install kind must be rejected")
	}
	resp = w.Handler().Handle(&wire.Message{Kind: wire.KindInstall, Body: []byte{0x7f}})
	if transport.AsError(resp) == nil {
		t.Error("garbage order must be rejected")
	}
}

// TestEngineErrorPaths covers missing wrappers, unknown reuse, and
// teardown of unknown instances.
func TestEngineErrorPaths(t *testing.T) {
	tr := transport.NewInProc()
	engine := smock.NewEngine(tr)
	// No wrapper registered for the node.
	dep := &planner.Deployment{Placements: []planner.Placement{
		{Component: spec.CompMailServer, Node: "ghost"},
	}}
	if _, err := engine.Execute(dep); err == nil {
		t.Error("missing wrapper must fail")
	}
	// Reuse of an unknown instance.
	dep = &planner.Deployment{Placements: []planner.Placement{
		{Component: spec.CompMailServer, Node: "ghost", Reused: true},
	}}
	if _, err := engine.Execute(dep); err == nil {
		t.Error("unknown reuse must fail")
	}
	// Placements nothing links: the deployment does not say who is whose
	// provider.
	dep = &planner.Deployment{Placements: []planner.Placement{
		{Component: spec.CompMailClient, Node: "ghost"}, {Component: spec.CompMailServer, Node: "ghost"},
	}}
	if _, err := engine.Execute(dep); err == nil || !strings.Contains(err.Error(), "edges") {
		t.Errorf("a multi-placement deployment without edges must fail, got %v", err)
	}
	// Teardown of an unknown instance.
	if err := engine.Teardown("X@y{}#1"); err == nil {
		t.Error("unknown teardown must fail")
	}
	// AddrOf on unknown placement.
	if _, ok := engine.AddrOf(planner.Placement{Component: "X", Node: "y"}); ok {
		t.Error("unknown AddrOf must miss")
	}
}

// TestGenericProxyLookupMiss: a proxy for an unregistered service fails
// at construction.
func TestGenericProxyLookupMiss(t *testing.T) {
	tr := transport.NewInProc()
	if _, err := smock.NewGenericProxy(tr, smock.NewLookup(), "ghost", nil); err == nil {
		t.Error("unknown service must fail")
	}
}

// receiveTap wraps a transport and notes, for every "receive" request a
// served handler answers, the sensitivity floor it carried and how many
// messages the reply held.
type receiveTap struct {
	transport.Transport
	mu   sync.Mutex
	seen []tappedReceive
}

type tappedReceive struct{ above, msgs int }

func (r *receiveTap) Serve(addr string, h transport.Handler) (transport.Listener, error) {
	return r.Transport.Serve(addr, transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		resp := h.Handle(m)
		if m.Method != "receive" || resp == nil || resp.Kind != wire.KindResponse {
			return resp
		}
		// mail's receive layouts: the request opens with the floor
		// (above:u64), the reply with the message count (count:u32).
		if len(m.Body) < 8 || len(resp.Body) < 4 {
			return resp
		}
		above, msgs := binary.BigEndian.Uint64(m.Body), binary.BigEndian.Uint32(resp.Body)
		r.mu.Lock()
		r.seen = append(r.seen, tappedReceive{int(above), int(msgs)})
		r.mu.Unlock()
		return resp
	}))
}

// TestSanDiegoReceiveAsksThePrimaryOnlyForWhatTheViewCannotHold: on the
// deployed Figure-6 San Diego chain the trust-4 view serves a DS500
// style inbox (everything at sensitivity 2) from its own store: the
// receive that crosses the tunnel carries floor 4 and its reply no
// messages. One level-5 message later, the same receive carries exactly
// that one. The view's request is answered by two listeners, the
// Encryptor's and, behind the tunnel, the primary's.
func TestSanDiegoReceiveAsksThePrimaryOnlyForWhatTheViewCannotHold(t *testing.T) {
	tap := &receiveTap{Transport: transport.NewInProc()}
	w := newWorldOn(t, tap)
	proxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer proxy.Close()
	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := alice.Send("Bob", "s", []byte("absorbed by the view"), 2); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(proxy.Deployment, "ViewMailServer@sd-2{TrustLevel=4}") {
		t.Fatalf("SD deployment = %s", proxy.Deployment)
	}
	bob := mail.NewClient("Bob", w.keys, mail.NewRemote(proxy))
	upstream := func() []tappedReceive {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		var out []tappedReceive
		for _, r := range tap.seen {
			if r.above > 0 {
				out = append(out, r)
			}
		}
		tap.seen = nil
		return out
	}
	msgs, err := bob.Receive()
	if err != nil || len(msgs) != n {
		t.Fatalf("receive = %d messages, %v; want %d", len(msgs), err, n)
	}
	empty := tappedReceive{above: 4, msgs: 0}
	if got := upstream(); len(got) != 2 || got[0] != empty || got[1] != empty {
		t.Errorf("floored receives on the chain = %+v, want the view's one request above 4 answered with no messages", got)
	}
	if _, err := alice.Send("Bob", "top", []byte("primary only"), 5); err != nil {
		t.Fatal(err)
	}
	msgs, err = bob.Receive()
	if err != nil || len(msgs) != n+1 {
		t.Fatalf("receive = %d messages, %v; want %d", len(msgs), err, n+1)
	}
	one := tappedReceive{above: 4, msgs: 1}
	if got := upstream(); len(got) != 2 || got[0] != one || got[1] != one {
		t.Errorf("floored receives on the chain = %+v, want the view's one request above 4 answered with the level-5 message", got)
	}
}
