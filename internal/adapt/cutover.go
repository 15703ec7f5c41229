package adapt

import (
	"fmt"

	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Executor is the loop's one seam to the world it manages: it hands the
// loop the table of what runs where, plans against it, and realizes
// what the loop decided there. The real implementation (EngineExecutor)
// works against the smock engine and lookup; the simulator fleet and
// benchmarks substitute models that plan and install nothing.
type Executor interface {
	// Table is the record of what runs where. The loop counts session
	// references in it; planners read their reuse sets from it.
	Table() *smock.Table
	// Replan computes the adaptation diff for a request against the
	// current network (revalidating the reuse set as a side effect).
	Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error)
	// Snapshot captures serialized state from the predecessors of the
	// stateful placements the diff will install, keyed by placement Key.
	// It is best-effort: a predecessor on a dead node yields no entry,
	// and the replacement starts empty (data views rebuild through the
	// coherence directory).
	Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte
	// Deploy realizes the diff's new deployment, seeding fresh installs
	// from states, and returns its head address. Instances already
	// running are reused; fresh ones enter the table pinned until the
	// loop acquires them. On error nothing was installed and the old
	// deployment is still serving (deploy-before-teardown).
	Deploy(diff *planner.Diff, states map[string][]byte) (string, error)
	// Publish (re-)binds the service name to the new head address in the
	// namespace, replacing any previous binding.
	Publish(service, addr string) error
	// Discard tears down instances the loop finalized — drained, or
	// evicted with no holder. The loop then removes them from the table.
	Discard(ids []string)
	// Verify checks a deployment against its request on the current
	// network: the three validity conditions (planner.Planner.Verify).
	// The loop's audit asks it of every session.
	Verify(dep *planner.Deployment, req planner.Request) error
}

// SnapshotMethod is the wire method stateful components answer with
// their serialized store as the whole reply body (see
// mail.Upstream's Snapshot). The controller speaks it generically: any
// component that answers is migrated with state, any that errors is
// redeployed stateless.
const SnapshotMethod = "snapshot"

// EngineExecutor implements Executor against a live smock deployment:
// the generic server's planner (serialized with client access
// requests), the deployment engine, and the lookup namespace.
type EngineExecutor struct {
	// Server provides Replan.
	Server *smock.GenericServer
	// Engine deploys and tears down instances.
	Engine *smock.Engine
	// Lookup, when non-nil, receives Publish registrations.
	Lookup *smock.Lookup
	// Transport carries snapshot fetches.
	Transport transport.Transport
	// Spec identifies which components are stateful (data views carry a
	// migratable store).
	Spec *spec.Service
	// Attrs, when non-nil, are attached to Publish registrations.
	Attrs map[string]string
}

// Table implements Executor: the engine's table.
func (x *EngineExecutor) Table() *smock.Table { return x.Engine.Table() }

// Replan implements Executor through the generic server's planner.
func (x *EngineExecutor) Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	return x.Server.Replan(old, req)
}

// Verify implements Executor through the generic server's planner.
func (x *EngineExecutor) Verify(dep *planner.Deployment, req planner.Request) error {
	return x.Server.Verify(dep, req)
}

// stateful reports whether a component's instances hold migratable
// state: data views do ("a data view contains a subset of the
// functionality and a subset of the data"); relays and object views
// are reinstalled empty.
func (x *EngineExecutor) stateful(component string) bool {
	comp, ok := x.Spec.Component(component)
	return ok && comp.Kind == spec.DataView
}

// Snapshot implements Executor. Every stateful placement in the new
// deployment gets a pre-cutover snapshot from its best predecessor:
// the same-key instance when one runs (the engine may supersede it),
// otherwise a removed or evicted instance of the same component (the
// migration case — the state moves to a different node, shedding what
// the destination's trust ceiling forbids on restore).
func (x *EngineExecutor) Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte {
	states := map[string][]byte{}
	for _, p := range diff.New.Placements {
		if !x.stateful(p.Component) {
			continue
		}
		addr, ok := x.predecessorAddr(p, diff)
		if !ok {
			continue
		}
		state, err := fetchSnapshot(x.Transport, addr)
		if err != nil {
			continue // dead predecessor: redeploy stateless
		}
		states[p.Key()] = state
	}
	return states
}

// predecessorAddr finds the instance whose state should seed p.
func (x *EngineExecutor) predecessorAddr(p planner.Placement, diff *planner.Diff) (string, bool) {
	if addr, ok := x.Engine.AddrOf(p); ok {
		return addr, true
	}
	for _, set := range [][]planner.Placement{diff.Remove, diff.Evicted} {
		for _, old := range set {
			if old.Component != p.Component {
				continue
			}
			if addr, ok := x.Engine.AddrOf(old); ok {
				return addr, true
			}
		}
	}
	return "", false
}

// fetchSnapshot asks the instance served at addr for its serialized
// state via the snapshot method convention.
func fetchSnapshot(tr transport.Transport, addr string) ([]byte, error) {
	ep, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, ID: 1, Method: SnapshotMethod})
	if err != nil {
		return nil, err
	}
	if err := transport.AsError(resp); err != nil {
		return nil, err
	}
	// The reply body is the state itself, and the response is ours.
	if len(resp.Body) == 0 {
		return nil, fmt.Errorf("adapt: snapshot reply carried no state")
	}
	return resp.Body, nil
}

// Deploy implements Executor: the engine applies the diff, fresh
// installs seeded from states.
func (x *EngineExecutor) Deploy(diff *planner.Diff, states map[string][]byte) (string, error) {
	return x.Engine.Apply(diff, states)
}

// Publish implements Executor. Register replaces any existing entry
// for the service name, so there is no window where the name resolves
// to nothing.
func (x *EngineExecutor) Publish(service, addr string) error {
	if x.Lookup == nil {
		return nil
	}
	return x.Lookup.Register(smock.Entry{Service: service, Attrs: x.Attrs, ServerAddr: addr})
}

// Discard implements Executor: the engine tears the instances down,
// deregistering their lookup entries.
func (x *EngineExecutor) Discard(ids []string) {
	for _, id := range ids {
		_ = x.Engine.Teardown(id) // best-effort: the node may be gone
	}
}
