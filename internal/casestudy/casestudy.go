// Package casestudy deploys the paper's mail-service case study in one
// process: a wrapper with a control listener on every node of the
// Figure 6 topology, the primary MailServer on ny-1, a generic server
// planning against it, and a lookup namespace — plus the adaptation
// loop and operational-API surface over them. psfctl's adapt and serve
// commands and the adaptation and API end-to-end tests run on it.
package casestudy

import (
	"fmt"

	"partsvc/internal/adapt"
	"partsvc/internal/api"
	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// World is the deployed case study.
type World struct {
	Tr       transport.Transport
	Net      *netmodel.Network
	Mon      *netmon.Monitor
	Keys     *seccrypto.KeyRing
	Primary  *mail.Server
	Engine   *smock.Engine
	GS       *smock.GenericServer
	Lookup   *smock.Lookup
	Wrappers map[netmodel.NodeID]*smock.NodeWrapper
}

// New deploys the case study over tr, with a mail account per user.
func New(tr transport.Transport, users ...string) (*World, error) {
	w := &World{Tr: tr, Keys: seccrypto.NewKeyRing(), Wrappers: map[netmodel.NodeID]*smock.NodeWrapper{}}
	clock := transport.NewRealClock()
	w.Primary = mail.NewServer(w.Keys, clock)
	for _, u := range users {
		if err := w.Primary.CreateAccount(u); err != nil {
			return nil, err
		}
	}
	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: w.Primary, Keys: w.Keys}); err != nil {
		return nil, err
	}
	w.Net = topology.CaseStudy()
	w.Mon = netmon.New(w.Net)
	w.Engine = smock.NewEngine(tr)
	for _, node := range w.Net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, tr, reg, clock)
		w.Engine.RegisterWrapper(wr)
		if _, err := wr.ServeControl(); err != nil {
			return nil, err
		}
		w.Wrappers[node.ID] = wr
	}
	addr, err := w.Wrappers[topology.NYServer].Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		return nil, err
	}
	svc := spec.MailService()
	pl := planner.New(svc, w.Net)
	msPlace, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		return nil, err
	}
	pl.AddExisting(msPlace)
	w.Engine.AdoptInstance(msPlace, addr)
	w.GS = smock.NewGenericServer(svc, pl, w.Engine)
	w.Lookup = smock.NewLookup()
	w.Engine.SetLookup(w.Lookup)
	return w, nil
}

// Executor returns the adaptation loop's executor over the world.
func (w *World) Executor() *adapt.EngineExecutor {
	return &adapt.EngineExecutor{
		Server: w.GS, Engine: w.Engine, Lookup: w.Lookup,
		Transport: w.Tr, Spec: spec.MailService(),
	}
}

// Loop builds an adaptation loop over the world that probes every
// node's wrapper each probeIntervalMS and reacts within tens of ms.
func (w *World) Loop(probeIntervalMS float64) *adapt.Controller {
	ctrl := adapt.New(adapt.Config{
		DebounceMS: 20, ProbeIntervalMS: probeIntervalMS, ProbeTimeoutMS: 500,
		SuspicionThreshold: 2, DrainMS: 40,
	}, w.Mon, w.Executor(), adapt.NewRealScheduler())
	ctrl.SetProber(adapt.NewTransportProber(w.Tr), w.Engine.ControlAddrs)
	return ctrl
}

// KillNode closes a node's wrapper: to everything deployed, a crash.
func (w *World) KillNode(id netmodel.NodeID) error {
	wr, ok := w.Wrappers[id]
	if !ok {
		return fmt.Errorf("no wrapper for %s", id)
	}
	wr.Close()
	return nil
}

// Control is the operational API's view of the world, with ctrl as its
// adaptation loop.
func (w *World) Control(ctrl *adapt.Controller) api.Control {
	return api.Control{
		Spec: spec.MailService(), Server: w.GS, Engine: w.Engine,
		Lookup: w.Lookup, Controller: ctrl, Mon: w.Mon, KillNode: w.KillNode,
	}
}
