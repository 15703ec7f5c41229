package bench

import (
	"math"
	"strings"
	"testing"
)

// TestFig7ShapeMatchesPaper is experiment E6's acceptance test: at every
// client count the four scenario groups order exactly as in Figure 7
// (group 1 fastest ... group 4 slowest, with clear separation), and the
// dynamic deployments are "virtually indistinguishable" from their
// static counterparts.
func TestFig7ShapeMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	rows := runFig7(cfg)
	byKey := map[string]map[int]Row{}
	for _, r := range rows {
		if byKey[r.Scenario] == nil {
			byKey[r.Scenario] = map[int]Row{}
		}
		byKey[r.Scenario][r.Clients] = r
	}
	if len(byKey) != 9 {
		t.Fatalf("scenarios = %d, want 9", len(byKey))
	}

	groups := map[int][]string{
		1: {"SF", "SS0", "DF", "DS0"},
		2: {"SS1000", "DS1000"},
		3: {"SS500", "DS500"},
		4: {"SS"},
	}
	for n := 1; n <= cfg.MaxClients; n++ {
		groupMax := map[int]float64{}
		groupMin := map[int]float64{1: math.Inf(1), 2: math.Inf(1), 3: math.Inf(1), 4: math.Inf(1)}
		for g, names := range groups {
			for _, name := range names {
				avg := byKey[name][n].AvgMS
				if avg <= 0 {
					t.Fatalf("scenario %s at %d clients has no data", name, n)
				}
				groupMax[g] = math.Max(groupMax[g], avg)
				groupMin[g] = math.Min(groupMin[g], avg)
			}
		}
		for g := 1; g < 4; g++ {
			if !(groupMax[g] < groupMin[g+1]) {
				t.Errorf("clients=%d: group %d (max %.2f ms) must be faster than group %d (min %.2f ms)",
					n, g, groupMax[g], g+1, groupMin[g+1])
			}
		}
		// The slow direct scenario pays at least one slow-link round
		// trip per send.
		if ss := byKey["SS"][n].AvgMS; ss < 2*cfg.SlowLatencyMS {
			t.Errorf("clients=%d: SS avg %.2f ms below the slow-link RTT", n, ss)
		}
	}

	// Dynamic vs static: within each pair the difference is bounded by
	// the proxy overhead, far below the inter-group gaps.
	for _, pair := range [][2]string{{"DF", "SF"}, {"DS0", "SS0"}, {"DS500", "SS500"}, {"DS1000", "SS1000"}} {
		for n := 1; n <= cfg.MaxClients; n++ {
			d, s := byKey[pair[0]][n].AvgMS, byKey[pair[1]][n].AvgMS
			if diff := math.Abs(d - s); diff > 10*cfg.ProxyOverheadMS+0.5 {
				t.Errorf("clients=%d: %s (%.2f) vs %s (%.2f) differ by %.2f ms — dynamic must be near-indistinguishable",
					n, pair[0], d, pair[1], s, diff)
			}
		}
	}
}

// TestFig7Deterministic: identical configurations produce identical
// rows (the DES guarantee).
func TestFig7Deterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxClients = 3
	a := runFig7(cfg)
	b := runFig7(cfg)
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFig7SendCounts: every client issues exactly SendsPerClient sends.
func TestFig7SendCounts(t *testing.T) {
	cfg := DefaultConfig()
	for _, sc := range Scenarios() {
		row := RunScenario(cfg, sc, 3)
		if row.Sends != 3*cfg.SendsPerClient {
			t.Errorf("%s: sends = %d, want %d", sc.Name, row.Sends, 3*cfg.SendsPerClient)
		}
	}
}

func TestGroupAssignment(t *testing.T) {
	for name, want := range map[string]int{
		"DF": 1, "SF": 1, "DS0": 1, "SS0": 1,
		"DS1000": 2, "SS1000": 2, "DS500": 3, "SS500": 3, "SS": 4, "bogus": 0,
	} {
		if got := Group(name); got != want {
			t.Errorf("Group(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestFig7TableRendering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxClients = 1
	cfg.SendsPerClient = 10
	out := Fig7Table(runFig7(cfg))
	for _, want := range []string{"scenario", "avg_send_ms", "DS500", "SS"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestOneTimeCosts (experiment E7): the one-time total is dominated by
// deployment-related work and sits orders of magnitude above the
// steady-state per-request latency, mirroring Section 4.2's ~10 s
// against millisecond requests.
func TestOneTimeCosts(t *testing.T) {
	c, err := MeasureOneTimeCosts()
	if err != nil {
		t.Fatal(err)
	}
	if c.Components < 3 {
		t.Errorf("SD deployment installs >= 3 components, got %d", c.Components)
	}
	if c.TransferMS <= 0 {
		t.Error("modeled code shipping must be positive")
	}
	// Code shipping across a 20 Mb/s / 200 ms link dominates: about
	// 400+ ms per component.
	if c.TransferMS < float64(c.Components)*200 {
		t.Errorf("transfer %v ms too small for %d components", c.TransferMS, c.Components)
	}
	steady := RunScenario(DefaultConfig(), Scenarios()[1], 1).AvgMS // DS0
	if c.TotalMS() < 100*steady {
		t.Errorf("one-time total %.2f ms should dwarf steady-state %.2f ms", c.TotalMS(), steady)
	}
	out := OneTimeTable(c)
	for _, want := range []string{"proxy download", "planning", "deployment", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("one-time table missing %q:\n%s", want, out)
		}
	}
}

// TestCoherenceBoundSweep (ablation A2): latency falls and staleness
// rises monotonically from write-through to none.
func TestCoherenceBoundSweep(t *testing.T) {
	rows := CoherenceBoundSweep(DefaultConfig(), 2)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Policy != "write-through" || rows[len(rows)-1].Policy != "none" {
		t.Fatalf("policy order wrong: %v", rows)
	}
	// Monotone over the count-bound spectrum (the Periodic row sits on a
	// different axis: its latency depends on the period, not a bound).
	var countBound []BoundSweepRow
	var periodic *BoundSweepRow
	for i := range rows {
		if strings.HasPrefix(rows[i].Policy, "periodic") {
			periodic = &rows[i]
			continue
		}
		countBound = append(countBound, rows[i])
	}
	for i := 1; i < len(countBound); i++ {
		if countBound[i].AvgMS > countBound[i-1].AvgMS+1e-9 {
			t.Errorf("latency must not rise as the bound relaxes: %s %.2f -> %s %.2f",
				countBound[i-1].Policy, countBound[i-1].AvgMS, countBound[i].Policy, countBound[i].AvgMS)
		}
		if countBound[i].MaxStale < countBound[i-1].MaxStale {
			t.Errorf("staleness must not fall as the bound relaxes: %v", countBound)
		}
	}
	// The time-driven policy lands strictly between the synchronous and
	// the never-flush extremes.
	if periodic == nil {
		t.Fatal("periodic row missing")
	}
	if !(periodic.AvgMS < rows[0].AvgMS && periodic.AvgMS > rows[len(rows)-1].AvgMS) {
		t.Errorf("periodic avg %.2f must sit between write-through %.2f and none %.2f",
			periodic.AvgMS, rows[0].AvgMS, rows[len(rows)-1].AvgMS)
	}
	// Write-through pays a slow-link RTT on every send.
	if rows[0].AvgMS < 2*DefaultConfig().SlowLatencyMS {
		t.Errorf("write-through avg %.2f below slow RTT", rows[0].AvgMS)
	}
	out := BoundSweepTable(rows)
	if !strings.Contains(out, "write-through") || !strings.Contains(out, "max_stale_records") {
		t.Errorf("sweep table:\n%s", out)
	}
}

// TestPlannerScaling (ablation A3): the planner's search effort is
// reported, and the constraint engine's propagation work grows with the
// network (candidate domains are the node table). That the search
// examines far fewer mappings than exhaustive enumeration — and picks
// the same deployment — is the planner package's equivalence oracle.
func TestPlannerScaling(t *testing.T) {
	rows, err := PlannerScaling([]int{8, 12}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Graphs == 0 || r.Mappings == 0 || r.Propagations == 0 {
			t.Errorf("row %+v has no search effort", r)
		}
	}
	if rows[1].Propagations <= rows[0].Propagations {
		t.Errorf("propagation effort must grow with network size: %+v", rows)
	}
	out := ScalingTable(rows)
	if !strings.Contains(out, "propagations") {
		t.Errorf("scaling table:\n%s", out)
	}
}

// runFig7 returns the Figure 7 rows of RunFig7Stats.
func runFig7(cfg Config) []Row {
	rows, _ := RunFig7Stats(cfg)
	return rows
}
