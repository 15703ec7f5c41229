// Package fleet runs the adaptation loop at fleet scale on the
// simulator: internal/adapt's Controller, with one planner per shard
// standing in for a deployment engine. Each shard planner plans against
// the loop's refcounted registry of instances, so the registry is the
// whole deployed state and Deploy/Discard have nothing left to do.
package fleet

import (
	"runtime"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
)

// The fleet is the adaptation loop: these are its types.
type (
	Config     = adapt.Config
	WaveReport = adapt.WaveReport
	Session    = adapt.Session
	Event      = adapt.Event
)

// Manager is a loop whose shards plan with their own planners.
type Manager struct {
	*adapt.Controller
	primaries *planner.Planner
}

// New builds a fleet over a shared network, its monitor, and a
// scheduler (virtual or wall-clock). cfg.Shards is rounded up to a
// power of two (0 means the next one ≥ GOMAXPROCS); cfg.Workers 0 means
// GOMAXPROCS.
func New(cfg Config, svc *spec.Service, net *netmodel.Network, mon *netmon.Monitor, sched adapt.Scheduler) *Manager {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	m := &Manager{}
	execs := make([]adapt.Executor, shards)
	for i := range execs {
		execs[i] = &shardPlanner{pl: planner.New(svc, net), m: m}
	}
	m.primaries = execs[0].(*shardPlanner).pl
	m.Controller = adapt.NewSharded(cfg, mon, execs, sched)
	return m
}

// AddPrimary registers service-owner infrastructure (e.g. the primary
// MailServer) shared by every session and exempt from teardown.
func (m *Manager) AddPrimary(component string, node netmodel.NodeID) (planner.Placement, error) {
	p, err := m.primaries.PrimaryPlacement(component, node)
	if err != nil {
		return planner.Placement{}, err
	}
	m.Pin(p)
	return p, nil
}

// shardPlanner is a shard's Executor: every computation plans against
// the registry as it stood when the wave began (the commit phase has not
// started yet), on one route epoch. Only one shard worker at a time uses
// a shardPlanner.
type shardPlanner struct {
	pl *planner.Planner
	m  *Manager
}

func (x *shardPlanner) RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error) {
	x.pl.Existing = append(x.pl.Existing[:0], x.m.Placements()...)
	x.pl.PinRoutes(x.pl.Net.Routes())
	defer x.pl.PinRoutes(nil)
	return x.pl.RepairReplan(old, req, ch)
}

func (x *shardPlanner) Snapshot(*planner.Deployment, *planner.Diff) map[string][]byte { return nil }

func (x *shardPlanner) Deploy(*planner.Diff, map[string][]byte) (string, error) { return "", nil }

func (x *shardPlanner) Publish(string, string) error { return nil }

func (x *shardPlanner) Discard([]planner.Placement) {}
