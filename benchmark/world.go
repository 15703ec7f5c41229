package main

import (
	"fmt"
	"os"

	"partsvc/internal/coherence"
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

// world is the paper's case study stood up on real TCP: the Figure-5
// network, a wrapper with a control listener on every node, the mail
// factories, the primary pre-deployed in New York, and a generic server
// over the default planner. Nothing here selects a planner backend, a
// simulator engine or a transport fast path: the benchmark measures
// whatever the defaults are.
type world struct {
	tcp      *transport.TCP      // the real transport; its Stats are the data-plane counters
	tr       transport.Transport // tcp, or the tracing wrapper around it
	net      *netmodel.Network
	mon      *netmon.Monitor
	keys     *seccrypto.KeyRing
	primary  *mail.Server
	engine   *smock.Engine
	gs       *smock.GenericServer
	lookup   *smock.Lookup
	wrappers map[netmodel.NodeID]*smock.NodeWrapper
	names    map[string]string // listener address -> component@node, for span naming
}

// newWorld builds a fresh world with the given mail accounts. policy is
// the coherence policy new views get (nil = write-through); rec, when
// non-nil, puts the tracing wrapper between every component and TCP.
func newWorld(users []string, policy coherence.Policy, rec *recorder) (*world, error) {
	w := &world{
		tcp:      transport.NewTCP(),
		keys:     seccrypto.NewKeyRing(),
		wrappers: map[netmodel.NodeID]*smock.NodeWrapper{},
		names:    map[string]string{},
	}
	w.tr = w.tcp
	if rec != nil {
		w.tr = &tracedTransport{inner: w.tcp, rec: rec}
	}
	clock := transport.NewRealClock()
	w.primary = mail.NewServer(w.keys, clock)
	for _, u := range users {
		if err := w.primary.CreateAccount(u); err != nil {
			return nil, err
		}
	}
	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: w.primary, Keys: w.keys, DefaultPolicy: policy}); err != nil {
		return nil, err
	}
	w.net = topology.CaseStudy()
	w.mon = netmon.New(w.net)
	w.engine = smock.NewEngine(w.tr)
	for _, node := range w.net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, w.tr, reg, clock)
		w.engine.RegisterWrapper(wr)
		if _, err := wr.ServeControl(); err != nil {
			w.close()
			return nil, err
		}
		w.wrappers[node.ID] = wr
	}
	addr, err := w.wrappers[topology.NYServer].Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.names[addr] = spec.CompMailServer + "@" + string(topology.NYServer)
	svc := spec.MailService()
	pl := planner.New(svc, w.net)
	place, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		w.close()
		return nil, err
	}
	pl.AddExisting(place)
	w.engine.AdoptInstance(place, addr)
	w.gs = smock.NewGenericServer(svc, pl, w.engine)
	w.lookup = smock.NewLookup()
	w.engine.SetLookup(w.lookup)
	return w, nil
}

// sdRequest and seattleRequest are the two Figure-6 sessions the
// workloads deploy. The planner credential is the case study's (Alice
// gets the full client, Carol the restricted one); the mail users that
// send through the deployed chain are the generator's.
func sdRequest() planner.Request {
	return planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
}

func seattleRequest() planner.Request {
	return planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
}

func nyRequest() planner.Request {
	return planner.Request{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: 50}
}

// Figure 6, as the planner must reproduce it. A world whose deployment
// differs is measuring some other chain, so the run fails.
const (
	figure6SD      = "MailClient@sd-2 -> ViewMailServer@sd-2{TrustLevel=4} -> Encryptor@sd-2 -> Decryptor@ny-1 -> MailServer@ny-1*"
	figure6Seattle = "ViewMailClient@sea-2 -> ViewMailServer@sea-2{TrustLevel=2} -> Encryptor@sea-2 -> Decryptor@sd-2 -> ViewMailServer@sd-2{TrustLevel=4}*"
)

// access plans and deploys a session and records which component
// listens where.
func (w *world) access(req planner.Request, want string) (string, *planner.Deployment, error) {
	head, dep, err := w.gs.Access(req)
	if err != nil {
		return "", nil, err
	}
	if got := dep.String(); got != want {
		return "", nil, fmt.Errorf("deployment is %q, want Figure 6's %q", got, want)
	}
	w.nameDeployment(dep)
	return head, dep, nil
}

func (w *world) nameDeployment(dep *planner.Deployment) {
	for _, p := range dep.Placements {
		if addr, ok := w.engine.AddrOf(p); ok {
			w.names[addr] = p.Component + "@" + string(p.Node)
		}
	}
}

// close takes every node down. Components' upstream connections die
// with the listeners they point at.
func (w *world) close() {
	for _, wr := range w.wrappers {
		wr.Close()
	}
}

// benchDir is the benchmark's own directory relative to the working
// directory: the harness runs from the checkout root (run.sh) or from
// benchmark/ itself (go run -C benchmark .).
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark"
	}
	return "."
}
