package smock_test

import (
	"fmt"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// portalSpec mirrors the planner package's portal service: a Portal
// requiring both a confidential ServerInterface and a LogInterface, so
// every linkage graph branches. This is the end-to-end proof that
// branching deployments flow through the generic server, the engine,
// and the repair path.
func portalSpec() *spec.Service {
	lit := func(v property.Value) property.Expr { return property.Lit(v) }
	return &spec.Service{
		Name: "portal",
		Properties: []property.Type{
			property.BoolType("Confidentiality"),
			property.IntervalType("TrustLevel", 1, 5),
			property.BoolType("Archive"),
		},
		Interfaces: []spec.InterfaceDecl{
			{Name: "PortalInterface", Properties: []string{"Confidentiality"}},
			{Name: "ServerInterface", Properties: []string{"Confidentiality", "TrustLevel"}},
			{Name: "LogInterface", Properties: []string{"Confidentiality"}},
		},
		Components: []spec.Component{
			{
				Name: "Portal",
				Implements: []spec.InterfaceSpec{{
					Name:  "PortalInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(false))},
				}},
				Requires: []spec.InterfaceSpec{
					{Name: "ServerInterface", Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(true))}},
					{Name: "LogInterface"},
				},
				Behaviors: spec.Behaviors{CPUMSPerRequest: 0.5, RequestBytes: 1024, ResponseBytes: 1024},
			},
			{
				Name: "Server",
				Implements: []spec.InterfaceSpec{{
					Name: "ServerInterface",
					Props: map[string]property.Expr{
						"Confidentiality": lit(property.Bool(true)),
						"TrustLevel":      lit(property.Int(5)),
					},
				}},
				Conditions: []property.Condition{property.CondGE("Node.TrustLevel", 5)},
				Behaviors:  spec.Behaviors{CapacityRPS: 1000, CPUMSPerRequest: 1, RequestBytes: 4096, ResponseBytes: 4096},
			},
			{
				Name: "LogServer",
				Implements: []spec.InterfaceSpec{{
					Name:  "LogInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(false))},
				}},
				// Logs stay on the archive host, which keeps the log branch
				// off the client node and off the data branch's host — the
				// deployment must actually fan out, and a kill under one
				// branch leaves the other alone.
				Conditions: []property.Condition{property.CondEq("Node.Archive", property.Bool(true))},
				Behaviors:  spec.Behaviors{CapacityRPS: 5000, CPUMSPerRequest: 0.1, RequestBytes: 256, ResponseBytes: 64},
			},
			{
				Name: "Encryptor2",
				Implements: []spec.InterfaceSpec{{
					Name:  "ServerInterface",
					Props: map[string]property.Expr{"Confidentiality": lit(property.Bool(true))},
				}},
				Requires:  []spec.InterfaceSpec{{Name: "ServerInterface"}},
				Behaviors: spec.Behaviors{CPUMSPerRequest: 0.2, RequestBytes: 4160, ResponseBytes: 4160},
			},
		},
		ModRules: property.RuleTable{
			"Confidentiality": property.ConfidentialityRule("Confidentiality"),
		},
	}
}

// registerPortalFactories installs trivial handlers for the portal
// components. The Portal's handler calls BOTH of its upstream endpoints
// per request — the multi-upstream wiring of a branching deployment —
// and stitches the answers together so a single client call proves both
// branches of the tree are live.
func registerPortalFactories(t *testing.T, reg *smock.Registry) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register("Server", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		node := ctx.Node
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return &wire.Message{
				Kind: wire.KindResponse, ID: m.ID,
				Meta: map[string]string{"served-by": string(node)},
				Body: append([]byte("data:"), m.Body...),
			}
		}), nil
	}))
	must(reg.Register("LogServer", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		node := ctx.Node
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return &wire.Message{
				Kind: wire.KindResponse, ID: m.ID,
				Meta: map[string]string{"logged-at": string(node)},
			}
		}), nil
	}))
	must(reg.Register("Encryptor2", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		up, ok := ctx.Upstreams["ServerInterface"]
		if !ok {
			return nil, fmt.Errorf("Encryptor2: no ServerInterface upstream")
		}
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			resp, err := up.Call(&wire.Message{Kind: wire.KindRequest, Method: m.Method, Body: m.Body})
			if err != nil {
				return transport.ErrorResponse(m, "Encryptor2: %v", err)
			}
			resp.ID = m.ID
			return resp
		}), nil
	}))
	must(reg.Register("Portal", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		srv, ok := ctx.Upstreams["ServerInterface"]
		if !ok {
			return nil, fmt.Errorf("Portal: no ServerInterface upstream")
		}
		logEp, ok := ctx.Upstreams["LogInterface"]
		if !ok {
			return nil, fmt.Errorf("Portal: no LogInterface upstream")
		}
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			dresp, err := srv.Call(&wire.Message{Kind: wire.KindRequest, Method: "fetch", Body: m.Body})
			if err != nil {
				return transport.ErrorResponse(m, "Portal: server branch: %v", err)
			}
			if err := transport.AsError(dresp); err != nil {
				return transport.ErrorResponse(m, "Portal: server branch: %v", err)
			}
			lresp, err := logEp.Call(&wire.Message{Kind: wire.KindRequest, Method: "log", Body: m.Body})
			if err != nil {
				return transport.ErrorResponse(m, "Portal: log branch: %v", err)
			}
			if err := transport.AsError(lresp); err != nil {
				return transport.ErrorResponse(m, "Portal: log branch: %v", err)
			}
			return &wire.Message{
				Kind: wire.KindResponse, ID: m.ID,
				Meta: map[string]string{
					"served-by": dresp.Meta["served-by"],
					"logged-at": lresp.Meta["logged-at"],
				},
				Body: dresp.Body,
			}
		}), nil
	}))
}

// portalNet is a three-node network built for the kill-and-repair
// scenario: an untrusted client machine with insecure uplinks to two
// trusted hosts, the farther of which keeps the archive. The trusted
// components must leave the client node, and the nearer host can die
// without partitioning the network or making the spec unplaceable.
func portalNet() *netmodel.Network {
	n := netmodel.New()
	add := func(id netmodel.NodeID, trust int64, archive bool) {
		err := n.AddNode(netmodel.Node{
			ID: id, Site: "site-" + string(id), CPUCapacityRPS: 2000,
			Props: property.Set{"TrustLevel": property.Int(trust), "Archive": property.Bool(archive)},
		})
		if err != nil {
			panic(err)
		}
	}
	add("client", 4, false)
	add("t1", 5, false)
	add("t2", 5, true)
	link := func(a, b netmodel.NodeID, latencyMS float64, secure bool) {
		err := n.AddLink(netmodel.Link{
			A: a, B: b, LatencyMS: latencyMS, BandwidthMbps: 100, Secure: secure,
			Props: property.Set{"Confidentiality": property.Bool(secure)},
		})
		if err != nil {
			panic(err)
		}
	}
	link("client", "t1", 50, false)
	link("client", "t2", 55, false)
	link("t1", "t2", 10, true)
	return n
}

// portalWorld deploys the portal service over portalNet.
type portalWorld struct {
	tr       transport.Transport
	net      *netmodel.Network
	engine   *smock.Engine
	gs       *smock.GenericServer
	wrappers map[netmodel.NodeID]*smock.NodeWrapper
}

func newPortalWorld(t *testing.T) *portalWorld {
	t.Helper()
	svc := portalSpec()
	if err := svc.Validate(); err != nil {
		t.Fatal(err)
	}
	w := &portalWorld{tr: transport.NewInProc(), wrappers: map[netmodel.NodeID]*smock.NodeWrapper{}}
	clock := transport.NewRealClock()
	reg := smock.NewRegistry()
	registerPortalFactories(t, reg)

	w.net = portalNet()
	w.engine = smock.NewEngine(w.tr)
	for _, node := range w.net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, w.tr, reg, clock)
		w.engine.RegisterWrapper(wr)
		w.wrappers[node.ID] = wr
	}
	w.gs = smock.NewGenericServer(svc, planner.New(svc, w.net), w.engine)
	return w
}

// callPortal makes one client request through addr and fails the test on
// any client-visible error; it returns the response for inspection.
func (w *portalWorld) callPortal(t *testing.T, addr, payload string) *wire.Message {
	t.Helper()
	ep, err := w.tr.Dial(addr)
	if err != nil {
		t.Fatalf("dialing portal head: %v", err)
	}
	defer ep.Close()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "visit", Body: []byte(payload)})
	if err != nil {
		t.Fatalf("portal call: %v", err)
	}
	if err := transport.AsError(resp); err != nil {
		t.Fatalf("portal call returned error: %v", err)
	}
	if got := string(resp.Body); got != "data:"+payload {
		t.Fatalf("portal body = %q, want %q", got, "data:"+payload)
	}
	if resp.Meta["served-by"] == "" || resp.Meta["logged-at"] == "" {
		t.Fatalf("portal response missing branch markers: %v", resp.Meta)
	}
	return resp
}

// TestTreeDeploymentEndToEnd is the DAG acceptance scenario: a service
// whose linkage graph no chain can express is planned as a tree,
// realized by the engine (one instance wired to two upstream
// providers), survives a node kill through RepairReplan + Apply, and
// never surfaces an error to the client.
func TestTreeDeploymentEndToEnd(t *testing.T) {
	w := newPortalWorld(t)
	req := planner.Request{Interface: "PortalInterface", ClientNode: "client", User: "Alice", RateRPS: 10}

	// No linkage chain expresses this spec...
	for _, g := range w.gs.Planner().EnumerateGraphs(req.Interface) {
		if !g.Branches() {
			t.Fatalf("a branching spec enumerated the chain %s", g.Names())
		}
	}

	// ...while Access deploys it end to end.
	addr, dep, err := w.gs.Access(req)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	t.Logf("tree deployment: %s", dep)
	if len(dep.Edges) != len(dep.Placements)-1 {
		t.Fatalf("tree deployment has %d edges for %d placements", len(dep.Edges), len(dep.Placements))
	}
	branching := false
	for _, ed := range dep.Edges {
		if ed.To != ed.From+1 {
			branching = true
		}
	}
	if !branching {
		t.Fatalf("deployment is chain-shaped, not a tree: %s", dep)
	}
	resp := w.callPortal(t, addr, "hello")
	if resp.Meta["served-by"] != "t1" {
		t.Errorf("served-by = %q, want the nearest trusted host %q", resp.Meta["served-by"], "t1")
	}
	if resp.Meta["logged-at"] != "t2" {
		t.Errorf("logged-at = %q, want the archive host %q", resp.Meta["logged-at"], "t2")
	}

	// Kill the trusted host serving the data branch; the head (the
	// client's own proxy target) and the log branch stay up and the
	// archive host can absorb the data branch too.
	var victim netmodel.NodeID
	for _, p := range dep.Placements {
		if p.Component == "Server" {
			victim = p.Node
		}
	}
	if victim == "" || victim == dep.Placements[0].Node {
		t.Fatalf("no killable Server placement in %s", dep)
	}
	w.wrappers[victim].Close()
	mon := netmon.New(w.net)
	if err := mon.ReportNodeDown(victim); err != nil {
		t.Fatal(err)
	}
	ch := planner.NewChangedSet()
	ch.AddNode(victim)

	repairs := w.gs.Planner().SolverStats.Repairs.Load()
	diff, err := w.gs.RepairReplan(dep, req, ch)
	if err != nil {
		t.Fatalf("RepairReplan after killing %s: %v", victim, err)
	}
	if got := w.gs.Planner().SolverStats.Repairs.Load(); got != repairs+1 {
		t.Errorf("the kill must reach the solver's repair path: repairs %d -> %d", repairs, got)
	}
	// The repair lands where a from-scratch plan of the surviving network
	// does.
	fresh, err := planner.New(portalSpec(), w.net).Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Placements) != len(diff.New.Placements) || fresh.ExpectedLatencyMS != diff.New.ExpectedLatencyMS {
		t.Errorf("repair landed on %s (%v ms), a fresh plan on %s (%v ms)",
			diff.New, diff.New.ExpectedLatencyMS, fresh, fresh.ExpectedLatencyMS)
	}
	for i, p := range fresh.Placements {
		if i < len(diff.New.Placements) && diff.New.Placements[i].Key() != p.Key() {
			t.Errorf("placement %d: repair %s, fresh plan %s", i, diff.New.Placements[i], p)
		}
	}
	if diff.Unchanged() {
		t.Fatalf("repair kept a deployment on dead node %s", victim)
	}
	for _, p := range diff.New.Placements {
		if p.Node == victim {
			t.Fatalf("repair placed %s on dead node %s", p.Component, victim)
		}
	}
	addr2, err := w.engine.Apply(diff, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	t.Logf("repaired deployment after killing %s: %s", victim, diff.New)

	// The repaired tree answers with zero client-visible errors, and
	// both branches now terminate at the surviving trusted host.
	resp = w.callPortal(t, addr2, "again")
	if resp.Meta["served-by"] != "t2" {
		t.Errorf("after repair served-by = %q, want the spare trusted host %q", resp.Meta["served-by"], "t2")
	}
	if resp.Meta["logged-at"] == string(victim) {
		t.Errorf("log branch still served by dead node %s", victim)
	}
}
