package netmon

import (
	"strings"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

func TestReportNodePropsNotifiesOnRealChangesOnly(t *testing.T) {
	net := topology.CaseStudy()
	m := New(net)
	var got []Change
	m.Subscribe(func(cs []Change) { got = append(got, cs...) })

	// Same value: no notification.
	if err := m.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(4)}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("no-op report must not notify: %v", got)
	}
	// Real change: notification + applied.
	if err := m.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Field != "TrustLevel" || got[0].New != "1" || got[0].Old != "4" {
		t.Fatalf("changes = %v", got)
	}
	n, _ := net.Node(topology.SDClient)
	if !n.Props["TrustLevel"].Equal(property.Int(1)) {
		t.Error("change not applied to the network")
	}
	if err := m.ReportNodeProps("ghost", nil); err == nil {
		t.Error("unknown node must error")
	}
}

func TestReportLink(t *testing.T) {
	net := topology.CaseStudy()
	m := New(net)
	var got []Change
	m.Subscribe(func(cs []Change) { got = append(got, cs...) })

	secure := true
	if err := m.ReportLink(topology.NYServer, topology.SDGateway, 150, -1, &secure); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("changes = %v", got)
	}
	l, _ := net.Link(topology.NYServer, topology.SDGateway)
	if l.LatencyMS != 150 || !l.Secure || l.BandwidthMbps != 20 {
		t.Errorf("link state = %+v", l)
	}
	if !l.Props["Confidentiality"].Equal(property.Bool(true)) {
		t.Error("security change must update the link's property environment")
	}
	if err := m.ReportLink("ghost", "ny-1", 1, 1, nil); err == nil {
		t.Error("unknown link must error")
	}
	// Change strings are readable.
	if !strings.Contains(got[0].String(), "ny-1~sd-1") {
		t.Errorf("change string = %q", got[0])
	}
}

func TestMultipleSubscribersInOrder(t *testing.T) {
	net := topology.CaseStudy()
	m := New(net)
	var order []string
	m.Subscribe(func([]Change) { order = append(order, "first") })
	m.Subscribe(func([]Change) { order = append(order, "second") })
	if err := m.ReportNodeProps(topology.SDClient, property.Set{"TrustLevel": property.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

// TestAdaptationLoopWithTrustRevocation: credential revocation ->
// mail translation -> replan. Withdrawing the Seattle nodes' trust
// credentials withdraws their TrustLevel, which evicts the Seattle view
// and denies service to the now-untrusted site; re-issuing the
// credentials restores local caching.
func TestAdaptationLoopWithTrustRevocation(t *testing.T) {
	net := topology.CaseStudy()
	pl := planner.New(spec.MailService(), net)
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(ms)
	seaReq := planner.Request{
		Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50,
	}
	old, err := pl.Plan(seaReq)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(old.Placements...)
	seaView := func(ps []planner.Placement) bool {
		for _, p := range ps {
			if p.Component == spec.CompViewMailServer && p.Node == topology.SeaClient {
				return true
			}
		}
		return false
	}
	if !seaView(old.Placements) {
		t.Fatalf("initial Seattle plan must cache locally: %s", old)
	}
	// setTrust re-issues (or, with "", revokes) the Seattle nodes' trust
	// credential and re-runs the mail translation.
	setTrust := func(trust string) {
		for _, id := range []netmodel.NodeID{topology.SeaGW, topology.SeaClient} {
			n, _ := net.Node(id)
			if trust == "" {
				delete(n.Credentials, "trust")
			} else {
				n.Credentials["trust"] = trust
			}
		}
		net.Translate(topology.MailTranslation())
	}

	// With every Seattle trust credential gone, the site cannot host or
	// even head a deployment: the replan fails — service is correctly
	// denied to the now-untrusted site — and the eviction pass drops the
	// Seattle view from the reuse set.
	setTrust("")
	if n, _ := net.Node(topology.SeaClient); n.Props["TrustLevel"].IsValid() {
		t.Fatalf("revocation must withdraw the trust level: %v", n.Props)
	}
	if _, err := pl.Replan(old, seaReq); err == nil {
		t.Fatal("replan must fail while Seattle holds no trust credential")
	}
	if seaView(pl.Existing) {
		t.Error("the Seattle view must have been evicted from the reuse set")
	}

	// Recovery: the credentials are re-issued and the replanner restores
	// local caching.
	setTrust("2")
	diff, err := pl.Replan(old, seaReq)
	if err != nil {
		t.Fatal(err)
	}
	if !seaView(diff.New.Placements) {
		t.Errorf("re-issued credentials must restore Seattle caching: %s", diff.New)
	}
}
