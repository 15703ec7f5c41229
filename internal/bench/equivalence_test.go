package bench

import (
	"runtime"
	"testing"
)

// smallConfig keeps the equivalence matrix fast: every variant runs the
// full 9-scenario grid, but at modest client counts.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxClients = 3
	cfg.SendsPerClient = 40
	return cfg
}

// rowsString renders rows for byte-level comparison. Comparing the
// rendered table (not struct equality) is the point: the acceptance
// criterion is byte-identical *output*.
func rowsString(rows []Row) string { return Fig7Table(rows) }

// TestEngineEquivalence is the determinism matrix: the Figure 7 table
// is byte-identical at any worker count.
func TestEngineEquivalence(t *testing.T) {
	base := smallConfig()
	base.Workers = 1
	want := rowsString(runFig7(base))

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"workers-4", func(c *Config) { c.Workers = 4 }},
		{"workers-16", func(c *Config) { c.Workers = 16 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Workers = 1
			v.mut(&cfg)
			got := rowsString(runFig7(cfg))
			if got != want {
				t.Fatalf("variant %s diverges from the serial baseline:\n--- want\n%s--- got\n%s",
					v.name, want, got)
			}
		})
	}
}

// TestSweepParallelEquivalence: the coherence sweep must be
// byte-identical serial vs parallel.
func TestSweepParallelEquivalence(t *testing.T) {
	serial, parallel := smallConfig(), smallConfig()
	serial.Workers = 1
	parallel.Workers = 8
	a := BoundSweepTable(CoherenceBoundSweep(serial, 2))
	b := BoundSweepTable(CoherenceBoundSweep(parallel, 2))
	if a != b {
		t.Fatalf("sweep diverges serial vs parallel:\n--- serial\n%s--- parallel\n%s", a, b)
	}
}

// TestClientCountsOverride: an explicit ClientCounts list replaces the
// 1..MaxClients sweep, preserving scenario-major order.
func TestClientCountsOverride(t *testing.T) {
	cfg := smallConfig()
	cfg.ClientCounts = []int{2, 5}
	rows := runFig7(cfg)
	scs := Scenarios()
	if len(rows) != len(scs)*2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(scs)*2)
	}
	for i, row := range rows {
		wantSc := scs[i/2].Name
		wantN := []int{2, 5}[i%2]
		if row.Scenario != wantSc || row.Clients != wantN {
			t.Fatalf("row %d = (%s,%d), want (%s,%d)", i, row.Scenario, row.Clients, wantSc, wantN)
		}
	}
	// Counts shared with the grid sweep must agree exactly.
	grid := runFig7(smallConfig())
	for _, row := range rows {
		if row.Clients != 2 {
			continue
		}
		for _, g := range grid {
			if g.Scenario == row.Scenario && g.Clients == 2 && g != row {
				t.Fatalf("%s@2 differs between ClientCounts and grid run: %+v vs %+v",
					row.Scenario, row, g)
			}
		}
	}
}

// TestWorkers: the pool-size policy.
func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

// TestForEachCoversAllIndices: every index is visited exactly once for
// any worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		counts := make([]int32, 100)
		forEach(workers, len(counts), func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	forEach(4, 0, func(i int) { t.Fatal("forEach(_, 0) must not invoke fn") })
}
