package planner

import (
	"strings"
	"testing"

	"partsvc/internal/property"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

func mailPlanner(t *testing.T) *Planner {
	t.Helper()
	svc := spec.MailService()
	if err := svc.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(svc, topology.CaseStudy())
}

func chainKey(g Graph) string { return strings.Join(g.Components(), ">") }

// TestEnumerateChainsFigure3 reproduces Figure 3: the valid component
// chains for a ClientInterface request originate at MailClient or
// ViewMailClient, terminate at MailServer, and may pass through
// ViewMailServers and Encryptor-Decryptor pairs.
func TestEnumerateChainsFigure3(t *testing.T) {
	pl := mailPlanner(t)
	chains := pl.EnumerateGraphs(spec.IfaceClient)
	if len(chains) == 0 {
		t.Fatal("no chains enumerated")
	}
	seen := map[string]bool{}
	for _, c := range chains {
		key := chainKey(c)
		if seen[key] {
			t.Errorf("duplicate chain %s", key)
		}
		seen[key] = true

		if c.Branches() {
			t.Errorf("mail components require at most one interface; %s branches", c.Names())
		}
		names := c.Components()
		if names[0] != spec.CompMailClient && names[0] != spec.CompViewMailClient {
			t.Errorf("chain %s must start at a client component", key)
		}
		if names[len(names)-1] != spec.CompMailServer {
			t.Errorf("chain %s must terminate at MailServer", key)
		}
		// Encryptors are always immediately followed by Decryptors and
		// vice versa (the only implementer of DecryptorInterface is the
		// Decryptor; the Decryptor requires a ServerInterface).
		for i, n := range names {
			if n == spec.CompEncryptor {
				if i+1 >= len(names) || names[i+1] != spec.CompDecryptor {
					t.Errorf("chain %s: Encryptor not followed by Decryptor", key)
				}
			}
			if n == spec.CompDecryptor && (i == 0 || names[i-1] != spec.CompEncryptor) {
				t.Errorf("chain %s: Decryptor not preceded by Encryptor", key)
			}
		}
	}
	// The canonical Figure 3 chains must all be present.
	for _, want := range []string{
		"MailClient>MailServer",
		"MailClient>ViewMailServer>MailServer",
		"MailClient>Encryptor>Decryptor>MailServer",
		"MailClient>ViewMailServer>Encryptor>Decryptor>MailServer",
		"MailClient>Encryptor>Decryptor>ViewMailServer>MailServer",
		"MailClient>ViewMailServer>ViewMailServer>MailServer",
		"ViewMailClient>MailServer",
		"ViewMailClient>ViewMailServer>MailServer",
		"ViewMailClient>ViewMailServer>Encryptor>Decryptor>MailServer",
	} {
		if !seen[want] {
			t.Errorf("expected chain %s not enumerated", want)
		}
	}
}

// TestEnumerateChainsDeterministic: two runs produce identical output.
func TestEnumerateChainsDeterministic(t *testing.T) {
	pl := mailPlanner(t)
	a := pl.EnumerateGraphs(spec.IfaceClient)
	b := pl.EnumerateGraphs(spec.IfaceClient)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if chainKey(a[i]) != chainKey(b[i]) {
			t.Fatalf("chain %d differs: %s vs %s", i, chainKey(a[i]), chainKey(b[i]))
		}
	}
}

// TestEnumerateChainsRespectsMaxLen: no enumerated chain exceeds the
// bound, and tightening the bound prunes chains.
func TestEnumerateChainsRespectsMaxLen(t *testing.T) {
	pl := mailPlanner(t)
	for _, c := range pl.EnumerateGraphs(spec.IfaceClient) {
		if len(c) > pl.maxLen() {
			t.Errorf("chain %s exceeds max length %d", chainKey(c), pl.maxLen())
		}
	}
	wide := len(pl.EnumerateGraphs(spec.IfaceClient))
	pl.MaxChainLen = 2
	narrow := pl.EnumerateGraphs(spec.IfaceClient)
	if len(narrow) >= wide {
		t.Errorf("MaxChainLen=2 must prune chains: %d vs %d", len(narrow), wide)
	}
	for _, c := range narrow {
		if len(c) > 2 {
			t.Errorf("chain %s exceeds bound 2", chainKey(c))
		}
	}
}

// TestEnumerateChainsServerInterface: a direct request for the server
// interface enumerates server-side chains only.
func TestEnumerateChainsServerInterface(t *testing.T) {
	pl := mailPlanner(t)
	chains := pl.EnumerateGraphs(spec.IfaceServer)
	seen := map[string]bool{}
	for _, c := range chains {
		seen[chainKey(c)] = true
		if n := c.Components()[0]; n == spec.CompMailClient || n == spec.CompViewMailClient {
			t.Errorf("client components do not implement ServerInterface: %s", chainKey(c))
		}
	}
	if !seen["MailServer"] {
		t.Error("bare MailServer chain missing")
	}
	if !seen["ViewMailServer>MailServer"] {
		t.Error("ViewMailServer>MailServer chain missing")
	}
}

// TestEnumerateChainsWithAnchors: an existing instance becomes a chain
// terminal marked with "*" only when it cuts an upstream linkage. The
// registered primary requires nothing, so it is no anchor: the plain
// MailServer position already holds it as a reused candidate, and the
// primary adds no graph. A registered ViewMailServer with recorded
// offers does cut one, so it terminates chains as an anchor.
func TestEnumerateChainsWithAnchors(t *testing.T) {
	pl := mailPlanner(t)
	bare := len(pl.EnumerateGraphs(spec.IfaceClient))
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(ms)
	chains := pl.EnumerateGraphs(spec.IfaceClient)
	if len(chains) != bare {
		t.Errorf("registering the primary enumerates %d graphs, want the %d of the bare specification", len(chains), bare)
	}
	for _, c := range chains {
		if chainKey(c) == "MailClient>MailServer*" {
			t.Error("the primary requires nothing but was enumerated as an anchor: MailClient>MailServer*")
		}
	}

	vms := Placement{
		Component: spec.CompViewMailServer, Node: topology.SDClient,
		Config: property.Set{"TrustLevel": property.Int(4)},
		Offers: property.Set{"TrustLevel": property.Int(4)},
	}
	pl.AddExisting(vms)
	found := false
	for _, c := range pl.EnumerateGraphs(spec.IfaceClient) {
		if chainKey(c) == "MailClient>ViewMailServer*" {
			found = true
			if c[1].anchor == nil {
				t.Error("terminal must be an anchor element")
			}
		}
	}
	if !found {
		t.Error("anchored chain MailClient>ViewMailServer* not enumerated")
	}
}

// TestEnumerateChainsUnknownInterface returns nothing.
func TestEnumerateChainsUnknownInterface(t *testing.T) {
	pl := mailPlanner(t)
	if got := pl.EnumerateGraphs("NoSuchInterface"); len(got) != 0 {
		t.Errorf("unknown interface enumerated %d chains", len(got))
	}
}
