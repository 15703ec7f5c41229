package adapt

import (
	"fmt"

	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Executor is the loop's one seam to the world it manages: it plans,
// and it realizes what the loop's registry decided. The real
// implementation (EngineExecutor) works against the smock engine and
// lookup; the simulator fleet and benchmarks substitute models that
// plan and keep books without sending RPCs.
type Executor interface {
	// RepairReplan computes the adaptation diff for a request against
	// the current network (revalidating the reuse set as a side effect).
	// ch names the network elements that changed since the last wave, so
	// a repair-capable planner can scope the re-search to them; nil
	// means unknown — a full replan.
	RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error)
	// Snapshot captures serialized state from the predecessors of the
	// stateful placements the diff will install, keyed by placement Key.
	// It is best-effort: a predecessor on a dead node yields no entry,
	// and the replacement starts empty (data views rebuild through the
	// coherence directory).
	Snapshot(old *planner.Deployment, diff *planner.Diff) map[string][]byte
	// Deploy realizes the diff's new deployment, seeding fresh installs
	// from states, and returns its head address. Instances already
	// running are reused. On error the old deployment is still serving
	// (deploy-before-teardown).
	Deploy(diff *planner.Diff, states map[string][]byte) (string, error)
	// Publish (re-)binds the service name to the new head address in the
	// namespace, replacing any previous binding.
	Publish(service, addr string) error
	// Discard tears down drained placements — the ones whose last
	// reference the loop released — and forgets them.
	Discard(placements []planner.Placement)
}

// SnapshotMethod is the wire method stateful components answer with
// their serialized store (see mail.Snapshotter). The controller speaks
// it generically: any component that answers is migrated with state,
// any that errors is redeployed stateless.
const SnapshotMethod = "snapshot"

// EngineExecutor implements Executor against a live smock deployment:
// the generic server's planner (serialized with client access
// requests), the deployment engine, and the lookup namespace.
type EngineExecutor struct {
	// Server provides RepairReplan/NoteDeployed/Forget.
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

// RepairReplan implements Executor: the changed-element set flows
// through to the planner's incremental repair.
func (x *EngineExecutor) RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error) {
	return x.Server.RepairReplan(old, req, ch)
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
// the live same-key instance when one exists (it may be replaced by
// the engine's stale-rewire path), otherwise a removed or evicted
// instance of the same component (the migration case — the state moves
// to a different node, shedding what the destination's trust ceiling
// forbids on restore).
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
	v, err := wire.Unmarshal(resp.Body)
	if err != nil {
		return nil, err
	}
	reply, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("adapt: snapshot reply is %T", v)
	}
	state, _ := reply["state"].([]byte)
	if state == nil {
		return nil, fmt.Errorf("adapt: snapshot reply carried no state")
	}
	return state, nil
}

// Deploy implements Executor: the engine applies the diff (evictions
// torn down, fresh installs seeded from states), and the planner's
// reuse set is updated to match.
func (x *EngineExecutor) Deploy(diff *planner.Diff, states map[string][]byte) (string, error) {
	addr, err := x.Engine.ApplyWith(diff, smock.ApplyOptions{
		StateFor: func(p planner.Placement) []byte { return states[p.Key()] },
	})
	if err != nil {
		return "", err
	}
	x.Server.Forget(diff.Evicted...)
	x.Server.NoteDeployed(diff.New)
	return addr, nil
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

// Discard implements Executor: drained instances are torn down
// (deregistering their lookup entries via the engine) and dropped from
// the planner's reuse set.
func (x *EngineExecutor) Discard(placements []planner.Placement) {
	for _, p := range placements {
		_ = x.Engine.Teardown(p) // best-effort: the node may be gone
	}
	x.Server.Forget(placements...)
}
