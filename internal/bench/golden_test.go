package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partsvc/internal/coherence"
	"partsvc/internal/trace"
)

// golden is one simulated output held byte for byte under testdata/.
// The files were recorded by the goroutine-process engine before it was
// deleted; the callback engine must keep reproducing them exactly.
type golden struct {
	file   string
	render func() string
}

func goldens() []golden {
	return []golden{
		{"fig7_default.txt", func() string { return Fig7Table(runFig7(DefaultConfig())) }},
		{"fig7_small.txt", func() string { return Fig7Table(runFig7(smallConfig())) }},
		{"trace_trees.sha256", traceTreeDigests},
		{"fig8_default.txt", func() string { return Fig8Table(RunFig8(DefaultFig8Config())) }},
	}
}

// traceTreeDigests renders the SHA-256 of every scenario's span tree at
// 3 clients, one "scenario/sends digest" line each. 10 sends per client
// never reach a count bound; 40 do, and the periodic sweep scenario adds
// the background flusher's root spans.
func traceTreeDigests() string {
	periodic := Scenario{Name: "sweep-periodic", Dynamic: true, Cached: true, Slow: true,
		Policy: coherence.Periodic{PeriodMS: 250}}
	var b strings.Builder
	for _, sends := range []int{10, 40} {
		cfg := DefaultConfig()
		cfg.SendsPerClient = sends
		for _, sc := range append(Scenarios(), periodic) {
			_, spans := RunScenarioTraced(cfg, sc, 3)
			fmt.Fprintf(&b, "%s/%d %x\n", sc.Name, sends, sha256.Sum256([]byte(trace.Tree(spans))))
		}
	}
	return b.String()
}

// TestGoldenOutputs: the Figure 7 tables, the traced span trees and the
// Figure 8 table are byte-identical to the recorded ones.
func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldens() {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := g.render(); got != string(want) {
				t.Fatalf("output diverges from testdata/%s:\n--- want\n%s--- got\n%s", g.file, want, got)
			}
		})
	}
}
