// Package fleet runs the adaptation loop at fleet scale on the
// simulator: internal/adapt's Controller, with planners of its own
// standing in for a deployment engine. Every planner plans against one
// shared table of instances, in which the loop mints and counts them,
// so the table is the whole deployed state and Deploy/Discard have
// nothing left to do.
package fleet

import (
	"runtime"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
)

// The fleet is the adaptation loop: these are its types.
type (
	Config     = adapt.Config
	WaveReport = adapt.WaveReport
	Session    = adapt.Session
)

// Manager is a loop that plans with its own planners.
type Manager struct {
	*adapt.Controller
	planners []*fleetPlanner
}

// New builds a fleet over a shared network, its monitor, and a
// scheduler (virtual or wall-clock), with cfg.Shards planners (0 means
// GOMAXPROCS); cfg.Workers 0 means GOMAXPROCS.
func New(cfg Config, svc *spec.Service, net *netmodel.Network, mon *netmon.Monitor, sched adapt.Scheduler) *Manager {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	tab := smock.NewTable()
	m := &Manager{planners: make([]*fleetPlanner, cfg.Shards)}
	execs := make([]adapt.Executor, cfg.Shards)
	for i := range execs {
		m.planners[i] = &fleetPlanner{pl: planner.New(svc, net), tab: tab}
		execs[i] = m.planners[i]
	}
	m.Controller = adapt.NewPlanners(cfg, mon, execs, sched)
	return m
}

// AddPrimary registers service-owner infrastructure (e.g. the primary
// MailServer) shared by every session and exempt from teardown.
func (m *Manager) AddPrimary(component string, node netmodel.NodeID) (planner.Placement, error) {
	x := m.planners[0]
	p, err := x.pl.PrimaryPlacement(component, node)
	if err != nil {
		return planner.Placement{}, err
	}
	x.tab.Adopt(p, "")
	return p, nil
}

// fleetPlanner is one of the fleet's Executors: every computation plans
// against the table as it stood when the wave began (the commit phase
// has not started yet), on one route epoch. A wave plans on each
// fleetPlanner from one goroutine.
type fleetPlanner struct {
	pl  *planner.Planner
	tab *smock.Table
}

func (x *fleetPlanner) Table() *smock.Table { return x.tab }

func (x *fleetPlanner) Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	x.pl.Existing = x.tab.AppendLive(x.pl.Existing[:0])
	x.pl.PinRoutes(x.pl.Net.Routes())
	defer x.pl.PinRoutes(nil)
	return x.pl.Replan(old, req)
}

func (x *fleetPlanner) Snapshot(*planner.Deployment, *planner.Diff) map[string][]byte { return nil }

func (x *fleetPlanner) Deploy(*planner.Diff, map[string][]byte) (string, error) { return "", nil }

func (x *fleetPlanner) Publish(string, string) error { return nil }

func (x *fleetPlanner) Discard([]string) {}

func (x *fleetPlanner) Verify(dep *planner.Deployment, req planner.Request) error {
	return x.pl.Verify(dep, req)
}
