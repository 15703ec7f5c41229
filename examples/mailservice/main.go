// Mailservice runs the paper's full case study in one process: the
// Figure 5 topology, the Figure 1 runtime flow (register, lookup,
// generic proxy, plan, deploy, rebind), the three Figure 6 deployments,
// and live mail traffic through them — encrypted end to end, cached at
// the branch sites, chained from the partner site.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run deploys the case study, sends mail from each site and prints the
// three deployments and the inboxes to w.
func run(w io.Writer) error {
	tr := transport.NewInProc()
	clock := transport.NewRealClock()
	keys := seccrypto.NewKeyRing()

	// The service owner stands up the primary in New York and creates
	// accounts (per-level keys are generated at account setup).
	primary := mail.NewServer(keys, clock)
	for _, u := range []string{"Alice", "Bob", "Carol"} {
		if err := primary.CreateAccount(u); err != nil {
			return err
		}
	}
	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: primary, Keys: keys}); err != nil {
		return err
	}

	net := topology.CaseStudy()
	engine := smock.NewEngine(tr)
	wrappers := map[netmodel.NodeID]*smock.NodeWrapper{}
	for _, node := range net.Nodes() {
		w := smock.NewNodeWrapper(node.ID, tr, reg, clock)
		wrappers[node.ID] = w
		engine.RegisterWrapper(w)
	}
	addr, err := wrappers[topology.NYServer].Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		return err
	}

	svc := spec.MailService()
	pl := planner.New(svc, net)
	msPlace, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		return err
	}
	pl.AddExisting(msPlace)
	engine.AdoptInstance(msPlace, addr)

	// Register the service in the lookup namespace (Figure 1, step 1).
	gs := smock.NewGenericServer(svc, pl, engine)
	ln, err := tr.Serve("generic-mail", gs.Handler())
	if err != nil {
		return err
	}
	lookup := smock.NewLookup()
	if err := lookup.Register(smock.Entry{
		Service: "mail", Attrs: map[string]string{"type": "mail"}, ServerAddr: ln.Addr(),
	}); err != nil {
		return err
	}

	proxyFor := func(node netmodel.NodeID, user string) (*smock.GenericProxy, error) {
		p, err := smock.NewGenericProxy(tr, lookup, "mail", map[string]string{"type": "mail"})
		if err != nil {
			return nil, err
		}
		p.Interface = spec.IfaceClient
		p.Node = node
		p.User = user
		p.RateRPS = 50
		return p, nil
	}

	// --- New York: Alice gets a direct connection to the server.
	nyProxy, err := proxyFor(topology.NYClient, "Alice")
	if err != nil {
		return err
	}
	aliceNY := mail.NewClient("Alice", keys, mail.NewRemote(nyProxy))
	if _, err := aliceNY.Send("Bob", "welcome", []byte("hello from New York"), 3); err != nil {
		return err
	}
	fmt.Fprintln(w, "NY deployment:     ", nyProxy.Deployment)

	// --- San Diego: Alice gets a local cache plus an encryptor tunnel.
	sdProxy, err := proxyFor(topology.SDClient, "Alice")
	if err != nil {
		return err
	}
	aliceSD := mail.NewClient("Alice", keys, mail.NewRemote(sdProxy))
	if _, err := aliceSD.Send("Bob", "branch office", []byte("hello from San Diego"), 4); err != nil {
		return err
	}
	fmt.Fprintln(w, "SD deployment:     ", sdProxy.Deployment)

	// --- Seattle: partner user Carol gets the restricted client chained
	// to San Diego's view.
	seaProxy, err := proxyFor(topology.SeaClient, "Carol")
	if err != nil {
		return err
	}
	carol := mail.NewViewClient("Carol", 2, keys.SubRing(2), mail.NewRemote(seaProxy))
	if _, err := carol.Send("Alice", "partner note", []byte("hello from Seattle"), 2); err != nil {
		return err
	}
	fmt.Fprintln(w, "Seattle deployment:", seaProxy.Deployment)

	// Everyone's mail arrived, transparently re-encrypted per recipient.
	bob := mail.NewClient("Bob", keys, primary)
	msgs, err := bob.Receive()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nBob's inbox (%d messages):\n", len(msgs))
	for _, m := range msgs {
		fmt.Fprintf(w, "  from %-6s sens=%d  %q: %s\n", m.From, m.Sensitivity, m.Subject, m.Body)
	}
	aliceMsgs, err := aliceNY.Receive()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Alice's inbox (%d messages):\n", len(aliceMsgs))
	for _, m := range aliceMsgs {
		fmt.Fprintf(w, "  from %-6s sens=%d  %q: %s\n", m.From, m.Sensitivity, m.Subject, m.Body)
	}
	return nil
}
