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
	planners []*Planner
}

// New builds a fleet over a shared network, its monitor, and a
// scheduler (virtual or wall-clock), with cfg.Workers planners (0 means
// GOMAXPROCS) over one table.
func New(cfg Config, svc *spec.Service, net *netmodel.Network, mon *netmon.Monitor, sched adapt.Scheduler) *Manager {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tab := smock.NewTable()
	m := &Manager{planners: make([]*Planner, n)}
	execs := make([]adapt.Executor, n)
	for i := range execs {
		m.planners[i] = NewPlanner(planner.New(svc, net), tab)
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

// Planner is the Executor of a modeled world, the fleet's and Figure
// 8's: it replans through its table (smock.Table.Replan) and deploys
// nothing. A wave plans on each Planner from one goroutine, against the
// table as it stood when the wave began (the commit phase has not
// started yet).
type Planner struct {
	pl  *planner.Planner
	tab *smock.Table
}

// NewPlanner returns the Executor that plans with pl against tab.
func NewPlanner(pl *planner.Planner, tab *smock.Table) *Planner {
	return &Planner{pl: pl, tab: tab}
}

func (x *Planner) Table() *smock.Table { return x.tab }

func (x *Planner) Replan(old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	return x.tab.Replan(x.pl, old, req)
}

func (x *Planner) Snapshot(*planner.Deployment, *planner.Diff) map[string][]byte { return nil }

func (x *Planner) Deploy(*planner.Diff, map[string][]byte) (string, error) { return "", nil }

func (x *Planner) Publish(string, string) error { return nil }

func (x *Planner) Discard([]string) {}

func (x *Planner) Verify(dep *planner.Deployment, req planner.Request) error {
	return x.pl.Verify(dep, req)
}
