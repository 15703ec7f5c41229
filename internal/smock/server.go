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

// Planner exposes the planner (e.g. to pre-register primaries).
func (g *GenericServer) Planner() *planner.Planner { return g.pl }

// Access plans and deploys for one client request, returning the head
// component address and the deployment.
func (g *GenericServer) Access(req planner.Request) (string, *planner.Deployment, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	dep, err := g.pl.Plan(req)
	if err != nil {
		return "", nil, err
	}
	addr, err := g.engine.Execute(dep)
	if err != nil {
		return "", nil, err
	}
	// Future requests may reuse and link to what was just deployed.
	g.pl.AddExisting(dep.Placements...)
	return addr, dep, nil
}

// PlanOnly runs the planner for one request without deploying anything
// — a dry run for the operational API's /v1/plan endpoint. The result
// is not registered as existing, so a later Access is unaffected.
func (g *GenericServer) PlanOnly(req planner.Request) (*planner.Deployment, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pl.Plan(req)
}

// Replan runs the planner's revalidate-and-replan under the server's
// planner lock, so an adaptation controller and client access requests
// serialize on the same planner state.
//
// Eviction can orphan live instances: still valid where they run, but
// wired (transitively) through an evicted provider, so every request
// they forward hits a dead address. The planner must not anchor a new
// chain at an orphan; when the engine reports any, they are dropped
// from the reuse set and the plan is recomputed so the whole chain
// downstream of the break is planned — and therefore re-wired —
// afresh. Orphans are not torn down here: the engine replaces same-key
// instances in place (carrying their state), and any orphan the new
// plan abandons lands in Remove for the normal drain-then-discard
// path.
//
// The no-op case goes through the planner's rewire check
// (planner.ReplanRewire): a network change that invalidates nothing may
// still have moved the latency optimum away from wiring the anchor cut
// keeps frozen (a degraded interior link); the session is then
// re-wired to the freshly optimal chain.
func (g *GenericServer) Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	return g.RepairReplan(old, req, nil)
}

// RepairReplan is Replan with the network elements a monitoring event
// touched: the planner first repairs the old deployment incrementally
// (placements away from the change keep their assignments, only
// invalidated domains are re-searched) and continues as a full replan
// when the repair moves nothing or is infeasible. A nil or empty ch is
// exactly Replan.
func (g *GenericServer) RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	diff, err := g.pl.RepairReplan(old, req, ch)
	if err != nil {
		return nil, err
	}
	if orphans := g.engine.OrphanedBy(diff.Evicted); len(orphans) > 0 {
		g.pl.DropExistingByKey(orphans...)
		diff2, err := g.pl.Replan(old, req)
		if err != nil {
			return nil, err
		}
		diff2.Evicted = append(diff.Evicted, diff2.Evicted...)
		return diff2, nil
	}
	return diff, nil
}

// NoteDeployed registers an adaptation's fresh placements for reuse by
// future access requests.
func (g *GenericServer) NoteDeployed(dep *planner.Deployment) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pl.AddExisting(dep.Placements...)
}

// Forget drops torn-down placements from the planner's reuse set.
func (g *GenericServer) Forget(placements ...planner.Placement) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pl.DropExisting(placements...)
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
	resp, err := transport.Call(ctx, ep, m)
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
