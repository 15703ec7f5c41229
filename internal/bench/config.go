// Package bench is the experiment harness: it regenerates the paper's
// evaluation artifacts — the nine Figure 7 scenarios over the
// discrete-event simulator, the Section 4.2 one-time cost breakdown,
// and the ablation sweeps indexed in DESIGN.md — and prints the same
// rows the paper reports.
package bench

import "partsvc/internal/coherence"

// Config parameterizes the Figure 7 reproduction. Defaults follow the
// paper's workload ("each client simulates the behavior of a cluster of
// users by sending out 100 messages and receiving messages 10 times")
// and the Figure 5 link characteristics; knobs the paper leaves
// unspecified (message size, coherence record amplification) are set to
// representative values documented in EXPERIMENTS.md.
type Config struct {
	// SendsPerClient is the number of messages each client sends (100).
	SendsPerClient int
	// ReceiveEvery inserts a receive sweep after every N sends, giving
	// the paper's 10 receives per 100 sends.
	ReceiveEvery int
	// MaxClients sweeps client counts 1..MaxClients (5).
	MaxClients int

	// MessageBytes is the mail message size on the wire.
	MessageBytes int
	// ReplyBytes is the send-acknowledgement size.
	ReplyBytes int
	// RecordsPerSend is the coherence-record amplification of one send
	// (folder entries, indexes, contact usage).
	RecordsPerSend int
	// RecordBytes is the size of one coherence record.
	RecordBytes int

	// SlowLatencyMS and SlowMbps describe the inter-site link
	// (NY-SD in Figure 5: 200 ms / 20 Mb/s).
	SlowLatencyMS float64
	SlowMbps      float64
	// LanLatencyMS and LanMbps describe intra-site links
	// (0 ms / 100 Mb/s).
	LanLatencyMS float64
	LanMbps      float64

	// Service times per component, milliseconds.
	ClientServiceMS float64
	ServerServiceMS float64
	ViewServiceMS   float64
	CryptoServiceMS float64
	// ProxyOverheadMS is the per-request cost of the framework's
	// service-specific proxy indirection, present only in the dynamic
	// scenarios (the paper finds it "negligible").
	ProxyOverheadMS float64

	// MissEvery makes every N-th receive sweep a cache miss that fetches
	// from the primary (5 reproduces the ViewMailServer's RRF of 0.2).
	MissEvery int

	// ClientCounts, when non-empty, replaces the 1..MaxClients sweep
	// with an explicit list of per-scenario client counts — the knob for
	// city-scale grids (e.g. [1, 100, 10000]) where enumerating every
	// count would be absurd.
	ClientCounts []int
	// Workers bounds the worker pool that fans scenario runs out in
	// parallel (each runs its own sim.Env); 0 means GOMAXPROCS. Results
	// are byte-identical to a serial run regardless of the setting.
	Workers int
	// Seed derives the per-scenario RNG seed handed to each sim.Env, so
	// stochastic workloads stay reproducible under any Workers value.
	Seed int64
}

// DefaultConfig returns the documented default parameters.
func DefaultConfig() Config {
	return Config{
		SendsPerClient: 100,
		ReceiveEvery:   10,
		MaxClients:     5,

		MessageBytes:   10240,
		ReplyBytes:     1024,
		RecordsPerSend: 10,
		RecordBytes:    128,

		SlowLatencyMS: 200,
		SlowMbps:      20,
		LanLatencyMS:  0,
		LanMbps:       100,

		ClientServiceMS: 0.5,
		ServerServiceMS: 1,
		ViewServiceMS:   1,
		CryptoServiceMS: 0.2,
		ProxyOverheadMS: 0.05,

		MissEvery: 5,

		Seed: 1,
	}
}

// clientCounts returns the per-scenario client counts of the grid:
// ClientCounts when set, else 1..MaxClients.
func (c Config) clientCounts() []int {
	if len(c.ClientCounts) > 0 {
		return c.ClientCounts
	}
	counts := make([]int, c.MaxClients)
	for i := range counts {
		counts[i] = i + 1
	}
	return counts
}

// Scenario is one Figure 7 configuration.
type Scenario struct {
	// Name is the paper's scenario label (DF, DS0, ..., SS).
	Name string
	// Dynamic marks framework-deployed configurations (D*); static
	// scenarios (S*) are the hand-built baselines.
	Dynamic bool
	// Cached deploys a local ViewMailServer in front of the slow link.
	Cached bool
	// Slow places the client behind the slow inter-site link; fast
	// scenarios run entirely on the LAN.
	Slow bool
	// Policy is the view's coherence policy (nil where no view exists).
	Policy coherence.Policy
}

// Scenarios returns the paper's nine configurations in Figure 7 order:
// DF, DS0, DS500, DS1000, SF, SS0, SS500, SS1000, SS.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "DF", Dynamic: true, Cached: false, Slow: false},
		{Name: "DS0", Dynamic: true, Cached: true, Slow: true, Policy: coherence.None{}},
		{Name: "DS500", Dynamic: true, Cached: true, Slow: true, Policy: coherence.CountBound{Bound: 500}},
		{Name: "DS1000", Dynamic: true, Cached: true, Slow: true, Policy: coherence.CountBound{Bound: 1000}},
		{Name: "SF", Dynamic: false, Cached: false, Slow: false},
		{Name: "SS0", Dynamic: false, Cached: true, Slow: true, Policy: coherence.None{}},
		{Name: "SS500", Dynamic: false, Cached: true, Slow: true, Policy: coherence.CountBound{Bound: 500}},
		{Name: "SS1000", Dynamic: false, Cached: true, Slow: true, Policy: coherence.CountBound{Bound: 1000}},
		{Name: "SS", Dynamic: false, Cached: false, Slow: true},
	}
}

// Group returns the paper's latency cluster for a scenario name:
// 1 = {SF, SS0, DF, DS0}, 2 = {SS1000, DS1000}, 3 = {SS500, DS500},
// 4 = {SS}.
func Group(name string) int {
	switch name {
	case "SF", "SS0", "DF", "DS0":
		return 1
	case "SS1000", "DS1000":
		return 2
	case "SS500", "DS500":
		return 3
	case "SS":
		return 4
	}
	return 0
}
