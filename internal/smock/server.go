package smock

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// AccessMethod is the generic server's access request method.
const AccessMethod = "access"

// GenericServer coordinates one service: it receives a client's first
// request with supporting credentials (Figure 1, step 3), consults the
// planner (step 4), drives the deployment engine (step 5), and returns
// the head component's address for the proxy to rebind to.
type GenericServer struct {
	engine *Engine

	mu sync.Mutex // the planner is not concurrent-safe
	pl *planner.Planner
}

// NewGenericServer binds a specification, its planner, and an engine.
// The planner carries the specification; the deployments it returns
// describe their own wiring.
func NewGenericServer(_ *spec.Service, pl *planner.Planner, engine *Engine) *GenericServer {
	return &GenericServer{pl: pl, engine: engine}
}

// Planner exposes the planner, its reuse set read from the engine's
// table.
func (g *GenericServer) Planner() *planner.Planner {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncLocked()
}

// syncLocked reads the planner's reuse set from the table.
func (g *GenericServer) syncLocked() *planner.Planner {
	g.pl.Existing = g.engine.tab.AppendLive(g.pl.Existing[:0])
	return g.pl
}

// Access plans and deploys for one client request, returning the head
// component address and the deployment. What it deploys is pinned in
// the table — held outside the adaptation loop until a tracked session
// takes it over — and so offered for reuse to every later plan.
func (g *GenericServer) Access(req planner.Request) (string, *planner.Deployment, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	dep, err := g.syncLocked().Plan(req)
	if err != nil {
		return "", nil, err
	}
	addr, err := g.engine.Execute(dep)
	if err != nil {
		return "", nil, err
	}
	return addr, dep, nil
}

// PlanOnly runs the planner for one request without deploying anything
// — a dry run for the operational API's /v1/plan endpoint.
func (g *GenericServer) PlanOnly(req planner.Request) (*planner.Deployment, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncLocked().Plan(req)
}

// RepairReplan runs the orphan-aware replan (Table.RepairReplan) under
// the server's planner lock, so an adaptation controller and client
// access requests serialize on the same planner state. ch names the
// network elements a monitoring event touched: the planner first
// repairs the old deployment incrementally and continues as a full
// replan — through the rewire check, which re-wires a session whose
// frozen wiring a degraded interior link made slow — when the repair
// moves nothing or is infeasible. A nil or empty ch is the full replan.
func (g *GenericServer) RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.engine.tab.RepairReplan(g.pl, old, req, ch)
}

// Handler serves Access over a transport. Request meta: interface,
// node, user, rate. Response meta: addr, deployment.
func (g *GenericServer) Handler() transport.Handler {
	return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		if m.Method != AccessMethod {
			return transport.ErrorResponse(m, "generic server: unknown method %q", m.Method)
		}
		rate, _ := strconv.ParseFloat(m.Meta["rate"], 64)
		// The planner records requests beyond this call, and transport
		// requests are zero-copy (meta strings alias a slab released
		// after the response) — the Request must own its strings.
		req := planner.Request{
			Interface:  strings.Clone(m.Meta["interface"]),
			ClientNode: netmodel.NodeID(strings.Clone(m.Meta["node"])),
			User:       strings.Clone(m.Meta["user"]),
			RateRPS:    rate,
		}
		_, span := trace.StartRemote(context.Background(),
			trace.SpanContext{TraceID: m.TraceID, SpanID: m.SpanID}, "smock.access")
		if span != nil {
			span.SetAttr("interface", req.Interface)
		}
		addr, dep, err := g.Access(req)
		span.End()
		if err != nil {
			return transport.ErrorResponse(m, "%v", err)
		}
		return &wire.Message{
			Kind: wire.KindResponse, ID: m.ID,
			Meta: map[string]string{"addr": addr, "deployment": dep.String()},
		}
	})
}

// GenericProxy is the client-side generic proxy: downloaded from the
// lookup service, it forwards the first request to the generic server
// and then "replaces itself with a service-specific proxy" — an
// endpoint bound directly to the deployed head component.
type GenericProxy struct {
	tr        transport.Transport
	serverEp  transport.Endpoint
	Interface string
	Node      netmodel.NodeID
	User      string
	RateRPS   float64

	mu         sync.Mutex
	bound      transport.Endpoint
	Deployment string
}

// NewGenericProxy dials the generic server found in the lookup service.
func NewGenericProxy(tr transport.Transport, lookup *Lookup, service string, attrs map[string]string) (*GenericProxy, error) {
	entries := lookup.Find(service, attrs)
	if len(entries) == 0 {
		return nil, fmt.Errorf("smock: no service %q in lookup", service)
	}
	ep, err := tr.Dial(entries[0].ServerAddr)
	if err != nil {
		return nil, err
	}
	return &GenericProxy{tr: tr, serverEp: ep}, nil
}

// ensureBound performs the one-time deployment handshake.
func (p *GenericProxy) ensureBound() (transport.Endpoint, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bound != nil {
		return p.bound, nil
	}
	resp, err := p.serverEp.Call(&wire.Message{
		Kind: wire.KindRequest, Method: AccessMethod,
		Meta: map[string]string{
			"interface": p.Interface,
			"node":      string(p.Node),
			"user":      p.User,
			"rate":      strconv.FormatFloat(p.RateRPS, 'f', -1, 64),
		},
	})
	if err != nil {
		return nil, err
	}
	if err := transport.AsError(resp); err != nil {
		return nil, err
	}
	p.Deployment = resp.Meta["deployment"]
	ep, err := p.tr.Dial(resp.Meta["addr"])
	if err != nil {
		return nil, err
	}
	p.bound = ep
	return ep, nil
}

// Call forwards a message to the deployed head component, deploying on
// first use.
func (p *GenericProxy) Call(m *wire.Message) (*wire.Message, error) {
	return p.CallContext(context.Background(), m)
}

// CallContext is Call under a "smock.proxy" span, so the one-time
// deployment handshake shows up in the first request's trace.
func (p *GenericProxy) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	ctx, span := trace.Start(ctx, "smock.proxy")
	ep, err := p.ensureBound()
	if err != nil {
		span.End()
		return nil, fmt.Errorf("smock: proxy binding: %w", err)
	}
	resp, err := ep.CallContext(ctx, m)
	span.End()
	return resp, err
}

// Close releases both the server handshake endpoint and the bound
// endpoint.
func (p *GenericProxy) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bound != nil {
		p.bound.Close()
	}
	return p.serverEp.Close()
}
