package fleet

import (
	"fmt"
	"strings"
	"testing"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
)

// twoClusterNet builds two fully disjoint copies of the case-study
// topology, node IDs prefixed "a-" and "b-". No link crosses clusters:
// whatever happens in one is physically invisible to the other, which
// makes it the ground truth for cross-session isolation.
func twoClusterNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	for _, prefix := range []string{"a-", "b-"} {
		add := func(id string, trust int64) {
			err := n.AddNode(netmodel.Node{
				ID:             netmodel.NodeID(prefix + id),
				Site:           prefix + "site",
				CPUCapacityRPS: 2000,
				Props:          property.Set{"TrustLevel": property.Int(trust)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		link := func(a, b string, latencyMS, mbps float64, secure bool) {
			err := n.AddLink(netmodel.Link{
				A: netmodel.NodeID(prefix + a), B: netmodel.NodeID(prefix + b),
				LatencyMS: latencyMS, BandwidthMbps: mbps, Secure: secure,
				Props: property.Set{"Confidentiality": property.Bool(secure)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		add("ny-1", 5)
		add("sd-1", 4)
		add("sd-2", 4)
		add("sea-2", 2)
		link("sd-1", "sd-2", 0, 100, true)
		link("ny-1", "sd-1", 200, 20, false)
		link("sd-1", "sea-2", 100, 50, false)
		link("ny-1", "sea-2", 400, 8, false)
	}
	return n
}

// isoWorld is one fleet spanning both clusters: a primary pinned in
// each cluster's New York, sessions interleaved across clusters so that
// shards mix them.
func isoWorld(t *testing.T) *world {
	t.Helper()
	w := &world{env: sim.NewEnv(), net: twoClusterNet(t)}
	w.mon = netmon.New(w.net)
	w.mgr = New(Config{
		Shards: 4, Workers: 4, DebounceMS: 20,
		CutoverRatePerSec: 1, CutoverBurst: 1, HysteresisMS: 60000,
	}, spec.MailService(), w.net, w.mon, adapt.NewSimScheduler(w.env))
	for _, prefix := range []string{"a-", "b-"} {
		if _, err := w.mgr.AddPrimary(spec.CompMailServer, netmodel.NodeID(prefix+"ny-1")); err != nil {
			t.Fatal(err)
		}
	}
	// One Alice and two Carols per cluster: two Seattle sessions make
	// the recovery wave defer a cutover, which the mid-cutover kill then
	// strands.
	for i := 0; i < 3; i++ {
		for _, prefix := range []string{"a-", "b-"} {
			req := planner.Request{Interface: spec.IfaceClient, RateRPS: 50}
			if i == 0 {
				req.ClientNode = netmodel.NodeID(prefix + "sd-2")
				req.User = "Alice"
			} else {
				req.ClientNode = netmodel.NodeID(prefix + "sea-2")
				req.User = "Carol"
			}
			w.mgr.AddSession(fmt.Sprintf("%s%02d", prefix, i), req)
		}
	}
	if rep := w.mgr.Bootstrap(); rep.Failed != 0 {
		t.Fatalf("bootstrap failed %d sessions: %+v", rep.Failed, rep)
	}
	w.mgr.Start()
	return w
}

// clusterTranscript renders one cluster's sessions — deployments plus
// event streams with the global wave sequence number masked out, since
// wave numbering is fleet-wide bookkeeping, not observable behavior.
// Everything else (virtual timing, event kinds, deployment details) is
// compared byte-for-byte.
func clusterTranscript(w *world, prefix string) string {
	var b strings.Builder
	for _, s := range w.mgr.Sessions() {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		fmt.Fprintf(&b, "%s dep=%s\n", s.Name, s.Deployment())
		for _, e := range s.Events() {
			fmt.Fprintf(&b, "  [%10.1f] %s %s\n", e.AtMS, e.Kind, e.Detail)
		}
	}
	return b.String()
}

// TestCrossSessionIsolation is the interference torture test: cluster A
// is put through an outage / recovery / mid-cutover-kill sequence —
// including killing a node while deferred cutovers onto it are still
// queued — while cluster B runs its own quiet scenario. B's sessions
// must come out byte-identical (same deployments, same events, same
// virtual timing) to a control run where cluster A never misbehaved,
// and no replan wave may span both clusters. Run under -race, this also
// shakes out data races between concurrent shard workers.
func TestCrossSessionIsolation(t *testing.T) {
	run := func(torture bool) (*world, string) {
		w := isoWorld(t)
		if torture {
			// Cluster A's bad day: a link improvement triggers a wave of
			// paced optimization rewires onto a-sd-2 (the table is warm
			// with Alice's San Diego chain), then the relay dies while one
			// of those cutovers is still deferred — a node-kill
			// mid-cutover, stranding a queued commit onto a now-partitioned
			// placement.
			w.env.At(100, func() { _ = w.mon.ReportLink("a-sd-1", "a-sd-2", 0, 200, nil) })
			w.env.At(600, func() { _ = w.mon.ReportNodeDown("a-sd-1") })
		}
		// Cluster B's identical-in-both-runs scenario, far enough out
		// that the shared token bucket has refilled either way.
		w.env.At(50000, func() { _ = w.mon.ReportLink("b-sd-1", "b-sd-2", 0, 200, nil) })
		w.env.RunUntil(60000)
		return w, clusterTranscript(w, "b-")
	}

	_, control := run(false)
	w, tortured := run(true)

	if control == "" {
		t.Fatal("empty control transcript")
	}
	if tortured != control {
		t.Fatalf("cluster A's failures leaked into cluster B:\n--- control ---\n%s--- tortured ---\n%s",
			control, tortured)
	}

	// The kill/recovery sequence must have done real work in cluster A —
	// otherwise the torture proved nothing.
	aAdapted := 0
	waveCluster := map[uint64]map[string]bool{}
	for _, s := range w.mgr.Sessions() {
		prefix := s.Name[:2]
		for _, e := range s.Events() {
			if prefix == "a-" && e.Kind == "adapted" {
				aAdapted++
			}
			if waveCluster[e.Wave] == nil {
				waveCluster[e.Wave] = map[string]bool{}
			}
			waveCluster[e.Wave][prefix] = true
		}
	}
	if aAdapted == 0 {
		t.Fatal("cluster A never rewired; the torture scenario is inert")
	}
	// Disjoint event streams: post-bootstrap waves never span clusters.
	for wave, clusters := range waveCluster {
		if wave > 1 && len(clusters) > 1 {
			t.Fatalf("wave %d spans both clusters", wave)
		}
	}
}
