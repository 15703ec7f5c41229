// Package adapt closes the paper's adaptation loop as a real subsystem:
// monitor → replan → redeploy, continuously. Section 6 leaves this as
// future work ("the framework be integrated with network monitoring
// tools … whether a new deployment (either incremental or complete) is
// called for"); earlier layers of this reproduction built the pieces —
// netmon reports changes, the planner computes diffs, the smock engine
// realizes them. The Controller here is the one loop that glues them
// together, for one session or five thousand:
//
//   - a network change debounces into a replan wave covering exactly
//     the sessions whose deployments touch the changed elements (an
//     index maintained at commit time), or that can reach an element
//     that improved;
//   - sessions are hashed onto shards; a wave replans shard by shard,
//     and sessions with the same request and deployment shape plan once
//     through a shared wave memo and share the diff;
//   - the commit phase walks the wave in session order under a cutover
//     governor (token-bucket pacing, anti-flap hysteresis), moving each
//     session's references in the executor's table of instances
//     (smock.Table): an instance no one holds is torn down after a
//     drain, and the Executor realizes the rest — a staged cutover
//     (snapshot state → deploy → publish → flip client bindings → drain
//     → release) so clients keep getting answers while the service
//     re-partitions under them;
//   - a failed replan or cutover is retried with backoff.
//
// The loop is clock-abstracted (Scheduler): the same state machine runs
// on the wall clock against real TCP deployments and on the virtual
// clock inside internal/sim, where it is deterministic: the commit
// phase applies results in session order, so output is byte-identical
// no matter how many workers drive a wave.
package adapt

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
)

// Config tunes the loop's timing, thresholds and scale. All durations
// are in (real or virtual) milliseconds.
type Config struct {
	// DebounceMS batches change bursts: the loop replans this long
	// after the last observed change, not once per change (default 50).
	DebounceMS float64
	// ProbeIntervalMS is the heartbeat period for active failure
	// detection; 0 disables probing (passive mode — the loop still
	// reacts to reported changes).
	ProbeIntervalMS float64
	// ProbeTimeoutMS bounds each probe (default 1000).
	ProbeTimeoutMS float64
	// SuspicionThreshold is the number of consecutive probe failures
	// before a node is declared down (default 2). One lost heartbeat is
	// suspicion; only repetition is evidence.
	SuspicionThreshold int
	// DrainMS is how long released instances keep running after the
	// client bindings flip, letting in-flight requests finish before
	// teardown (default 100).
	DrainMS float64
	// RetryBackoffMS is the delay before retrying a failed adaptation;
	// it doubles per consecutive failure (default 200).
	RetryBackoffMS float64
	// MaxAdaptRetries bounds consecutive retries of a failing adaptation
	// per session (default 3). After that the session waits for the next
	// network change.
	MaxAdaptRetries int
	// Shards is the number of session shards. It partitions state and
	// decides which shard planner handles which session, so it is part
	// of a fleet's deterministic identity. 0 means one shard for New and
	// the next power of two ≥ GOMAXPROCS for fleet.New.
	Shards int
	// Workers bounds the goroutines driving a wave's replan phase (0
	// means 1 for New, GOMAXPROCS for fleet.New). Output-invariant.
	Workers int
	// HysteresisMS is the per-session anti-flap window: an
	// optimization-only rewire within this many ms of the session's
	// last cutover is suppressed. 0 disables.
	HysteresisMS float64
	// CutoverRatePerSec paces committed cutovers loop-wide; <= 0
	// disables pacing.
	CutoverRatePerSec float64
	// CutoverBurst is the token-bucket depth (default 32).
	CutoverBurst int
}

func (c Config) withDefaults() Config {
	if c.DebounceMS <= 0 {
		c.DebounceMS = 50
	}
	if c.ProbeTimeoutMS <= 0 {
		c.ProbeTimeoutMS = 1000
	}
	if c.SuspicionThreshold <= 0 {
		c.SuspicionThreshold = 2
	}
	if c.DrainMS <= 0 {
		c.DrainMS = 100
	}
	if c.RetryBackoffMS <= 0 {
		c.RetryBackoffMS = 200
	}
	if c.MaxAdaptRetries <= 0 {
		c.MaxAdaptRetries = 3
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CutoverBurst <= 0 {
		c.CutoverBurst = 32
	}
	return c
}

// Event is one observable step of the loop, timestamped on its clock.
// Loop-wide kinds (Session ""): "observe" (changes arrived), "suspect"
// (node declared down by the failure detector), "wave-open" and
// "wave-close". Per-session kinds: "replan" (the session was replanned
// in the wave), "unchanged", "suppressed" (anti-flap), "deferred"
// (rate-limited; Detail has the commit time), "stage" (cutover stage
// entered; Detail names it), "planned" (bootstrap deployment
// committed), "adapted" and "failed".
type Event struct {
	AtMS    float64
	Wave    uint64
	Kind    string
	Session string
	Detail  string
}

// String renders the event for streaming logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%10.1fms] w%03d %-10s", e.AtMS, e.Wave, e.Kind)
	if e.Session != "" {
		s += " " + e.Session
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// SessionEvents is how many of its latest events a session keeps: a
// long-lived fleet emits two or three per affected session per topology
// event, forever.
const SessionEvents = 256

// Session is one client-facing deployment the loop keeps valid: the
// planning request, the current deployment, and the client bindings to
// flip when the head moves. All mutation happens through the loop;
// accessors are safe from any goroutine. Req is read-only once the
// session is tracked.
type Session struct {
	// Name identifies the session in events.
	Name string
	// Service, when non-empty, is the lookup name under which the head
	// address is (re-)published on every cutover.
	Service string
	// Req is the planning request to replay on every replan.
	Req planner.Request

	idx   int // global order (tracking order)
	shard int
	reqFP string // Req.Fingerprint(), for the wave key

	mu sync.Mutex
	// dep is the current deployment, facts what the loop derives from
	// it. Both are immutable and shared by every session of the wave
	// group that planned them.
	dep   *planner.Deployment
	facts *depFacts
	// held names the instances dep runs on, in placement order: the
	// session's references in the table.
	held     []string
	head     string
	bindings []Flippable
	// events is a ring of the latest SessionEvents events; once full,
	// evHead is the oldest.
	events        []ringEvent
	evHead        int
	lastCutoverMS float64
	tracked       bool
	pendingCancel func() bool   // a deferred commit
	pendingDiff   *planner.Diff // what the deferred commit will apply
	retryCancel   func() bool   // a pending retry
	retries       int           // consecutive failed attempts
}

// NewSession wraps a deployment made outside the loop (by
// GenericServer.Access or Engine.Execute) for tracking. dep may be nil:
// the session then gets its first deployment from Bootstrap or the next
// wave that covers it.
func NewSession(name, service string, req planner.Request, dep *planner.Deployment, headAddr string) *Session {
	return &Session{Name: name, Service: service, Req: req, dep: dep, head: headAddr, lastCutoverMS: math.Inf(-1)}
}

// Bind registers a client binding to repoint on cutover.
func (s *Session) Bind(f Flippable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindings = append(s.bindings, f)
}

// Deployment returns the session's current deployment (nil before its
// first). It may be shared with other sessions: treat it as read-only.
func (s *Session) Deployment() *planner.Deployment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep
}

// HeadAddr returns the current head component address.
func (s *Session) HeadAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// Events returns a copy of the session's latest events (at most
// SessionEvents of them), oldest first.
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.events))
	for _, part := range [][]ringEvent{s.events[s.evHead:], s.events[:s.evHead]} {
		for _, e := range part {
			out = append(out, Event{AtMS: e.atMS, Wave: e.wave, Kind: e.kind, Session: s.Name, Detail: e.detail})
		}
	}
	return out
}

// ringEvent is an Event as a session keeps it: without the session's
// own name, which is most of a fleet's event memory.
type ringEvent struct {
	atMS         float64
	wave         uint64
	kind, detail string
}

// Shard returns the shard the session hashed onto.
func (s *Session) Shard() int { return s.shard }

func (s *Session) record(ev Event) {
	e := ringEvent{atMS: ev.AtMS, wave: ev.Wave, kind: ev.Kind, detail: ev.Detail}
	s.mu.Lock()
	if len(s.events) < SessionEvents {
		s.events = append(s.events, e)
	} else {
		s.events[s.evHead] = e
		s.evHead = (s.evHead + 1) % SessionEvents
	}
	s.mu.Unlock()
}

func (s *Session) snapshot() (*planner.Deployment, *depFacts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep, s.facts
}

// disarm withdraws the session's deferred commit — a newer verdict
// supersedes any rate-limited diff still waiting to land — and, with
// retry, its pending retry too.
func (s *Session) disarm(retry bool) {
	s.mu.Lock()
	timers := [2]func() bool{s.pendingCancel}
	s.pendingCancel, s.pendingDiff = nil, nil
	if retry {
		timers[1], s.retryCancel = s.retryCancel, nil
	}
	s.mu.Unlock()
	for _, cancel := range timers {
		if cancel != nil {
			cancel()
		}
	}
}

// depFacts is what the loop needs to know about a deployment, worked
// out once per distinct deployment rather than once per session.
type depFacts struct {
	// summary is the placement chain by key: the detail of the
	// session's planned/adapted event and the deployment-shape part of
	// its wave key.
	summary string
	// footprint is every node a placement sits on or an edge path
	// traverses — the elements whose degradation can affect the session.
	footprint []netmodel.NodeID
}

// Controller is the adaptation loop. Construct with New (or fleet.New),
// Track the sessions to keep valid, then Start.
type Controller struct {
	cfg   Config
	mon   *netmon.Monitor
	net   *netmodel.Network
	exec  Executor
	sched Scheduler
	// planners[i] replans shard i's wave groups: the loop's Executor, or
	// a planner of the shard's own.
	planners []Executor
	gov      *governor
	tab      *smock.Table
	prober   Prober
	// targets enumerates probe targets (typically Engine.ControlAddrs).
	targets func() map[netmodel.NodeID]string
	onEvent func(Event)
	onWave  func(WaveReport)

	waves               *metrics.Counter
	waveSessions        *metrics.Histogram
	waveSpanMS          *metrics.Histogram
	replansTotal        *metrics.Counter
	planComputes        *metrics.Counter
	memoHits            *metrics.Counter
	memoLookups         *metrics.Counter
	routeLookups        *metrics.Counter
	cutovers            *metrics.Counter
	cutoversRateLimited *metrics.Counter
	deploys, discards   *metrics.Counter
	flapsSuppressed     *metrics.Counter
	evictions           *metrics.Counter
	probesSent          *metrics.Counter
	probesFailed        *metrics.Counter

	// waveMu serializes everything that moves table references:
	// waves, deferred commits, drains, Track and Untrack.
	waveMu sync.Mutex

	mu             sync.Mutex
	sessions       []*Session // global order
	nextIdx        int
	byNode         map[netmodel.NodeID]map[*Session]struct{}
	started        bool
	stopped        bool
	debounceCancel func() bool
	pendingAll     bool
	pending        map[*Session]struct{}
	pendingCh      *planner.ChangedSet // changed elements since the last wave
	waveSeq        uint64
	probeCancel    func() bool
	suspicion      map[netmodel.NodeID]int // consecutive probe misses
	down           map[netmodel.NodeID]bool
}

// New builds a loop over a monitor and an executor that replans every
// wave group and realizes every cutover. prober and targets (SetProber)
// may be left unset when cfg.ProbeIntervalMS is 0.
func New(cfg Config, mon *netmon.Monitor, exec Executor, sched Scheduler) *Controller {
	execs := make([]Executor, max(cfg.Shards, 1))
	for i := range execs {
		execs[i] = exec
	}
	return NewSharded(cfg, mon, execs, sched)
}

// NewSharded is New with one Executor per shard: shard i's wave groups
// are replanned through execs[i], and cutovers go through execs[0],
// whose table the loop keeps its references in. cfg.Shards is ignored;
// len(execs) is the shard count.
func NewSharded(cfg Config, mon *netmon.Monitor, execs []Executor, sched Scheduler) *Controller {
	cfg = cfg.withDefaults()
	cfg.Shards = len(execs)
	reg := metrics.DefaultRegistry
	c := &Controller{
		cfg: cfg, mon: mon, net: mon.Network(), exec: execs[0], sched: sched, planners: execs,
		gov: newGovernor(cfg.CutoverRatePerSec, cfg.CutoverBurst, cfg.HysteresisMS),
		tab: execs[0].Table(),

		waves:               reg.Counter("fleet.waves"),
		waveSessions:        reg.Histogram("fleet.wave_sessions"),
		waveSpanMS:          reg.Histogram("fleet.wave_span_ms"),
		replansTotal:        reg.Counter("fleet.replans"),
		planComputes:        reg.Counter("fleet.plan_computes"),
		memoHits:            reg.Counter("fleet.memo_hits"),
		memoLookups:         reg.Counter("fleet.memo_lookups"),
		routeLookups:        reg.Counter("fleet.route_lookups"),
		cutovers:            reg.Counter("fleet.cutovers"),
		cutoversRateLimited: reg.Counter("fleet.cutovers_rate_limited"),
		deploys:             reg.Counter("fleet.deploys"),
		discards:            reg.Counter("fleet.discards"),
		flapsSuppressed:     reg.Counter("fleet.flaps_suppressed"),
		evictions:           reg.Counter("fleet.evictions"),
		probesSent:          reg.Counter("adapt.probes_sent"),
		probesFailed:        reg.Counter("adapt.probes_failed"),

		byNode:    map[netmodel.NodeID]map[*Session]struct{}{},
		pending:   map[*Session]struct{}{},
		suspicion: map[netmodel.NodeID]int{},
		down:      map[netmodel.NodeID]bool{},
	}
	return c
}

// SetProber installs the failure detector: every ProbeIntervalMS the
// loop probes each node targets enumerates, and SuspicionThreshold
// consecutive misses report the node down to the monitor. Must be
// called before Start.
func (c *Controller) SetProber(p Prober, targets func() map[netmodel.NodeID]string) {
	c.prober = p
	c.targets = targets
}

// OnEvent installs an event sink (streamed to logs by psfctl, published
// on the operational API's bus, asserted on by tests). Must be called
// before Start; events are emitted without the loop's state locks held,
// and the sink must not call back into the loop.
func (c *Controller) OnEvent(fn func(Event)) { c.onEvent = fn }

// OnWave installs a wave-report sink (benchmarks, logs). Must be set
// before Start.
func (c *Controller) OnWave(fn func(WaveReport)) { c.onWave = fn }

// shardOf consistent-hashes a session name onto a shard.
func (c *Controller) shardOf(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(len(c.planners)))
}

// Track adds a session to keep valid. May be called before or after
// Start. A session arriving with a deployment holds a reference on each
// of its instances (see smock.Table.Acquire): the loop takes over those
// its access request deployed, and leaves pinned the ones it reused
// from outside the loop.
func (c *Controller) Track(s *Session) {
	c.waveMu.Lock()
	defer c.waveMu.Unlock()
	c.mu.Lock()
	s.idx = c.nextIdx
	c.nextIdx++
	s.shard = c.shardOf(s.Name)
	s.reqFP = s.Req.Fingerprint()
	c.sessions = append(c.sessions, s)
	c.mu.Unlock()

	s.mu.Lock()
	s.tracked = true
	dep := s.dep
	if dep != nil {
		s.facts = factsOf(dep)
	}
	facts := s.facts
	s.mu.Unlock()
	if dep != nil {
		held := c.acquire(dep)
		s.mu.Lock()
		s.held = held
		s.mu.Unlock()
		c.reindex([]indexMove{{s: s, new: facts}})
	}
}

// AddSession tracks a session for req with no deployment yet: Bootstrap
// (or the next wave that covers it) plans and commits its first.
func (c *Controller) AddSession(name string, req planner.Request) *Session {
	s := NewSession(name, "", req, nil, "")
	c.Track(s)
	return s
}

// Untrack stops keeping the named session valid and releases its
// deployment: instances no other session holds drain and are torn down.
// A deferred commit or retry still armed for the session is withdrawn.
// It returns the number of instances whose last reference the session
// held (0 for unknown names).
func (c *Controller) Untrack(name string) int {
	c.waveMu.Lock()
	defer c.waveMu.Unlock()
	c.mu.Lock()
	var s *Session
	for i, t := range c.sessions {
		if t.Name == name {
			s = t
			c.sessions = append(c.sessions[:i], c.sessions[i+1:]...)
			break
		}
	}
	if s == nil {
		c.mu.Unlock()
		return 0
	}
	delete(c.pending, s)
	c.mu.Unlock()

	s.disarm(true)
	s.mu.Lock()
	s.tracked, s.retries = false, 0
	held, facts := s.held, s.facts
	s.mu.Unlock()
	if facts != nil {
		c.reindex([]indexMove{{s: s, old: facts}})
	}
	return c.release(s, 0, held)
}

// Sessions returns the tracked sessions in tracking order.
func (c *Controller) Sessions() []*Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Session(nil), c.sessions...)
}

// Session returns the tracked session called name.
func (c *Controller) Session(name string) (*Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sessions {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// SessionsPerShard returns the shard occupancy histogram.
func (c *Controller) SessionsPerShard() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.planners))
	for _, s := range c.sessions {
		out[s.shard]++
	}
	return out
}

// Instances returns the number of live instances in the table: pinned
// ones plus those some session holds, draining ones excluded.
func (c *Controller) Instances() int { return len(c.tab.AppendLive(nil)) }

// Kick runs an immediate wave over every tracked session, bypassing the
// debounce window — the management API's "adapt now". Synchronous: it
// returns when the wave (including any cutovers) is done. No-op after
// Stop.
func (c *Controller) Kick() {
	c.mu.Lock()
	stopped := c.stopped
	sessions := append([]*Session(nil), c.sessions...)
	c.mu.Unlock()
	if !stopped {
		c.runWave(sessions, false, nil)
	}
}

// Bootstrap plans and commits a deployment for every tracked session in
// one wave (governor bypassed: initial placement is not a cutover).
// Returns the wave report.
func (c *Controller) Bootstrap() WaveReport {
	return c.runWave(c.Sessions(), true, nil)
}

// Start subscribes to the monitor and, when configured, starts the
// failure detector.
func (c *Controller) Start() {
	c.mu.Lock()
	started := c.started
	c.started = true
	c.mu.Unlock()
	if started {
		return
	}
	c.mon.Subscribe(c.onChanges)
	if c.cfg.ProbeIntervalMS > 0 && c.prober != nil && c.targets != nil {
		c.mu.Lock()
		c.probeCancel = c.sched.After(c.cfg.ProbeIntervalMS, c.probe)
		c.mu.Unlock()
	}
}

// Stop cancels pending debounce, probe, deferred-commit and retry
// timers. Already-running waves finish and armed drains still tear
// down; no new wave starts. (The monitor subscription stays registered
// but becomes inert.)
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	timers := []func() bool{c.debounceCancel, c.probeCancel}
	c.debounceCancel, c.probeCancel = nil, nil
	sessions := append([]*Session(nil), c.sessions...)
	c.mu.Unlock()
	for _, s := range sessions {
		s.disarm(true)
	}
	for _, cancel := range timers {
		if cancel != nil {
			cancel()
		}
	}
}

// probe is one heartbeat round: every target once, in sorted node order
// so simulated event sequences stay reproducible, with no lock held
// while probing or reporting — a report re-enters the loop through the
// monitor. One lost heartbeat is suspicion; SuspicionThreshold in a row
// declare the node down (a suspect event plus a monitor report), and
// the first answer after that reports it back up.
func (c *Controller) probe() {
	targets := c.targets()
	nodes := make([]netmodel.NodeID, 0, len(targets))
	for node := range targets {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var declareDown, declareUp []netmodel.NodeID
	for _, node := range nodes {
		c.probesSent.Inc()
		err := c.prober.Probe(node, targets[node], c.cfg.ProbeTimeoutMS)
		c.mu.Lock()
		switch {
		case err != nil:
			c.probesFailed.Inc()
			c.suspicion[node]++
			if c.suspicion[node] >= c.cfg.SuspicionThreshold && !c.down[node] {
				c.down[node] = true
				declareDown = append(declareDown, node)
			}
		case c.down[node]:
			delete(c.down, node)
			declareUp = append(declareUp, node)
			fallthrough
		default:
			c.suspicion[node] = 0
		}
		c.mu.Unlock()
	}
	for _, node := range declareDown {
		c.emit(nil, Event{Kind: "suspect", Detail: fmt.Sprintf("node %s unresponsive after %d probes", node, c.cfg.SuspicionThreshold)})
		_ = c.mon.ReportNodeDown(node)
	}
	for _, node := range declareUp {
		_ = c.mon.ReportNodeUp(node)
	}
	c.mu.Lock()
	if !c.stopped {
		c.probeCancel = c.sched.After(c.cfg.ProbeIntervalMS, c.probe)
	}
	c.mu.Unlock()
}

// emit records e in the session's stream (when s is non-nil) and
// forwards it to the event sink. A zero AtMS is stamped with the
// current time.
func (c *Controller) emit(s *Session, e Event) {
	if e.AtMS == 0 {
		e.AtMS = c.sched.NowMS()
	}
	if s != nil {
		e.Session = s.Name
		s.record(e)
	}
	if c.onEvent != nil {
		c.onEvent(e)
	}
}
