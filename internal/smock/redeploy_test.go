package smock_test

import (
	"strings"
	"testing"

	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// TestRedeployAfterLinkSecured runs the paper's Section 6 adaptation
// end to end on the live runtime: the NY-SD link becomes secure, the
// planner replans without the encryptor tunnel, the engine replaces the
// stale-wired view (state recovered through the coherence directory),
// and mail keeps flowing.
func TestRedeployAfterLinkSecured(t *testing.T) {
	w := newWorld(t)

	// Initial SD deployment and some traffic through it.
	proxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer proxy.Close()
	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	if _, err := alice.Send("Bob", "before", []byte("one"), 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(proxy.Deployment, "Encryptor@sd-2") {
		t.Fatalf("initial deployment must use the tunnel: %s", proxy.Deployment)
	}

	// The environment changes: the inter-site link becomes secure.
	pl := w.gs.Planner()
	link, _ := pl.Net.Link(topology.NYServer, topology.SDGateway)
	link.Secure = true
	link.Props["Confidentiality"] = property.Bool(true)

	// Replan and apply. The old deployment object is reconstructed from
	// the planner's registered instances via a fresh plan on the old
	// network state; here we simply replan against the request.
	req := planner.Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	}
	diff, err := pl.Replan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range diff.New.Placements {
		if p.Component == spec.CompEncryptor || p.Component == spec.CompDecryptor {
			t.Fatalf("secured link must drop the tunnel: %s", diff.New)
		}
	}
	addr, err := w.engine.Apply(diff, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic through the adapted head still works, and the view's
	// replicated state survived the rewiring replacement.
	ep, err := w.tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	alice2 := mail.NewClient("Alice", w.keys, mail.NewRemote(ep))
	if _, err := alice2.Send("Bob", "after", []byte("two"), 2); err != nil {
		t.Fatal(err)
	}
	if got := w.primary.Store().InboxCount("Bob"); got != 2 {
		t.Errorf("primary inbox = %d, want 2 (state preserved across redeployment)", got)
	}
	// Alice can still read everything through the new path.
	msgs, err := alice2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	_ = msgs // Alice has no inbox traffic; the call exercising the path suffices.
}

// TestRedeployAfterTrustDrop: San Diego loses trust; the evicted view
// is torn down and the replanned chain avoids SD caching entirely.
func TestRedeployAfterTrustDrop(t *testing.T) {
	w := newWorld(t)
	proxy := w.proxyFor(t, topology.SDClient, "Alice")
	defer proxy.Close()
	alice := mail.NewClient("Alice", w.keys, mail.NewRemote(proxy))
	if _, err := alice.Send("Bob", "before", []byte("one"), 2); err != nil {
		t.Fatal(err)
	}

	pl := w.gs.Planner()
	for _, id := range []netmodel.NodeID{topology.SDClient, topology.SDGateway} {
		n, _ := pl.Net.Node(id)
		n.Props["TrustLevel"] = property.Int(1)
	}
	req := planner.Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient,
		User: "Alice", RateRPS: 50,
	}
	diff, err := pl.Replan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	evictedView := false
	for _, p := range diff.Evicted {
		if p.Component == spec.CompViewMailServer {
			evictedView = true
		}
	}
	if !evictedView {
		t.Fatalf("the SD view must be evicted: %v", diff.Evicted)
	}
	addr, err := w.engine.Apply(diff, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range diff.Evicted {
		if at, ok := w.engine.AddrOf(p); ok {
			t.Errorf("evicted %s still runs at %s", p, at)
		}
	}
	ep, err := w.tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	alice2 := mail.NewClient("Alice", w.keys, mail.NewRemote(ep))
	if _, err := alice2.Send("Bob", "after", []byte("two"), 3); err != nil {
		t.Fatal(err)
	}
	if got := w.primary.Store().InboxCount("Bob"); got != 2 {
		t.Errorf("primary inbox = %d, want 2", got)
	}
}
