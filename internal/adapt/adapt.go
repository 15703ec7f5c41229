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
//   - a wave plans each of its keys (request and deployment shape) once,
//     striped over the planners in key order, and every session of the
//     key shares the diff;
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
	// SuspicionThreshold is the number of consecutive strikes before a
	// node is declared down (default 2). A missed probe is a strike, and
	// so is a connection to the node that its far side ended. One strike
	// is suspicion; only repetition is evidence.
	SuspicionThreshold int
	// DrainMS is how long released instances keep running after the
	// client bindings flip, letting in-flight requests finish before
	// teardown (default 100).
	DrainMS float64
	// Shards is accepted and ignored, so configurations that set it
	// keep compiling: the fleet's planner count is Workers.
	Shards int
	// Workers is the number of planners fleet.New gives the loop (0
	// means GOMAXPROCS), each planning on a goroutine of its own in a
	// wave's replan phase. New's loop has one planner, its Executor.
	// Output-invariant.
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
	if c.CutoverBurst <= 0 {
		c.CutoverBurst = 32
	}
	return c
}

// A failed adaptation is retried after retryBackoffMS, doubling per
// consecutive failure, at most maxAdaptRetries times per session; after
// that the session waits for the next network change.
const (
	retryBackoffMS  = 200
	maxAdaptRetries = 3
)

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

	idx   int    // global order (tracking order)
	reqFP string // Req.Fingerprint(), for the wave key

	// member is the group whose member list holds the session, and
	// joinSeq when it joined (both under Controller.mu).
	member  *group
	joinSeq uint64

	mu sync.Mutex
	// grp is the group the session answers for: its deployment, the
	// facts the loop derives from it and the instances it holds, all
	// immutable and shared with the group's other members.
	grp           *group
	head          string
	bindings      []Flippable
	lastCutoverMS float64
	tracked       bool
	pendingCancel func() bool   // a deferred commit
	pendingDiff   *planner.Diff // what the deferred commit will apply
	pendingAtMS   float64       // when: the cutover slot the governor granted
	retryCancel   func() bool   // a pending retry
	retries       int           // consecutive failed attempts
}

// NewSession wraps a deployment made outside the loop (by
// GenericServer.Access or Engine.Execute) for tracking. dep may be nil:
// the session then gets its first deployment from Bootstrap or the next
// wave that covers it.
func NewSession(name, service string, req planner.Request, dep *planner.Deployment, headAddr string) *Session {
	return &Session{Name: name, Service: service, Req: req, grp: &group{dep: dep}, head: headAddr, lastCutoverMS: math.Inf(-1)}
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
	return s.grp.dep
}

// HeadAddr returns the current head component address.
func (s *Session) HeadAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// settle records a good verdict: a retry armed for an earlier failure
// is withdrawn, and the failure count restarts.
func (s *Session) settle() {
	s.disarm(true)
	s.mu.Lock()
	s.retries = 0
	s.mu.Unlock()
}

// disarm withdraws the session's deferred commit — a newer verdict
// supersedes any rate-limited diff still waiting to land — and, with
// retry, its pending retry too. It returns the withdrawn commit's slot
// (ok is false when none was armed).
func (s *Session) disarm(retry bool) (slotMS float64, ok bool) {
	s.mu.Lock()
	timers := [2]func() bool{s.pendingCancel}
	slotMS, ok = s.pendingAtMS, s.pendingCancel != nil
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
	return slotMS, ok
}

// depFacts is what the loop needs to know about a deployment, worked
// out once per group rather than once per session.
type depFacts struct {
	// summary is the placement chain by key: the detail of the
	// session's planned/adapted event and the deployment-shape part of
	// its wave key.
	summary string
	// footprint is every node a placement sits on or an edge's route
	// traverses — the elements whose degradation can affect the session.
	footprint []netmodel.NodeID
	// chain is every other node the upstream chain an anchored placement
	// forwards into runs on or routes through: a node that dies there
	// breaks the session too, but the chain's latency is not the
	// session's to replan.
	chain []netmodel.NodeID
}

// Controller is the adaptation loop. Construct with New (or fleet.New),
// Track the sessions to keep valid, then Start.
type Controller struct {
	cfg   Config
	mon   *netmon.Monitor
	net   *netmodel.Network
	exec  Executor
	sched Scheduler
	// planners replan a wave's keys, key i on planners[i mod n]: the
	// loop's Executor, or planners of the fleet's own.
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
	waveGroups          *metrics.Histogram
	waveSpanMS          *metrics.Histogram
	replansTotal        *metrics.Counter
	planComputes        *metrics.Counter
	memoHits            *metrics.Counter
	routeLookups        *metrics.Counter
	cutovers            *metrics.Counter
	cutoversRateLimited *metrics.Counter
	deploys, discards   *metrics.Counter
	flapsSuppressed     *metrics.Counter
	evictions           *metrics.Counter
	probesSent          *metrics.Counter
	probesFailed        *metrics.Counter
	auditViolations     *metrics.Counter

	// waveMu serializes everything that moves table references:
	// waves, deferred commits, drains, Track and Untrack.
	waveMu sync.Mutex
	// groups finds a deployment's groups, passSeq numbers the passes
	// (under waveMu).
	groups  map[*planner.Deployment][]*group
	passSeq uint64

	mu             sync.Mutex
	sessions       []*Session // global order
	nextIdx        int
	live           map[*group]struct{} // every group with a member
	byNode         nodeIndex           // groups by footprint
	byChain        nodeIndex           // groups by anchored chain
	joinSeq        uint64
	started        bool
	stopped        bool
	debounceCancel func() bool
	waveNow        bool // the armed wave is a breaking change's: no debounce
	pendingAll     bool
	// A change pending for the next wave is owed to the pending groups'
	// members that joined before it, and to pendingSessions: those that
	// left such a group since.
	pendingGroups   []*group
	pendingSessions map[*Session]struct{}
	waveSeq         uint64
	probeCancel     func() bool
	suspicion       map[netmodel.NodeID]int  // consecutive strikes
	confirming      map[netmodel.NodeID]bool // evidence awaiting its probe
	down            map[netmodel.NodeID]bool
}

// New builds a loop over a monitor and an executor that replans every
// wave key and realizes every cutover. prober and targets (SetProber)
// may be left unset when cfg.ProbeIntervalMS is 0.
func New(cfg Config, mon *netmon.Monitor, exec Executor, sched Scheduler) *Controller {
	return NewPlanners(cfg, mon, []Executor{exec}, sched)
}

// NewPlanners is New with several planners: a wave's keys are striped
// over execs, and cutovers go through execs[0], whose table the loop
// keeps its references in. Each Executor plans on one goroutine at a
// time.
func NewPlanners(cfg Config, mon *netmon.Monitor, execs []Executor, sched Scheduler) *Controller {
	cfg = cfg.withDefaults()
	reg := metrics.DefaultRegistry
	c := &Controller{
		cfg: cfg, mon: mon, net: mon.Network(), exec: execs[0], sched: sched, planners: execs,
		gov: newGovernor(cfg.CutoverRatePerSec, cfg.CutoverBurst, cfg.HysteresisMS),
		tab: execs[0].Table(),

		waves:               reg.Counter("fleet.waves"),
		waveSessions:        reg.Histogram("fleet.wave_sessions"),
		waveGroups:          reg.Histogram("adapt.wave_groups"),
		waveSpanMS:          reg.Histogram("fleet.wave_span_ms"),
		replansTotal:        reg.Counter("fleet.replans"),
		planComputes:        reg.Counter("fleet.plan_computes"),
		memoHits:            reg.Counter("fleet.memo_hits"),
		routeLookups:        reg.Counter("fleet.route_lookups"),
		cutovers:            reg.Counter("fleet.cutovers"),
		cutoversRateLimited: reg.Counter("fleet.cutovers_rate_limited"),
		deploys:             reg.Counter("fleet.deploys"),
		discards:            reg.Counter("fleet.discards"),
		flapsSuppressed:     reg.Counter("fleet.flaps_suppressed"),
		evictions:           reg.Counter("fleet.evictions"),
		probesSent:          reg.Counter("adapt.probes_sent"),
		probesFailed:        reg.Counter("adapt.probes_failed"),
		auditViolations:     reg.Counter("adapt.audit_violations"),

		groups:          map[*planner.Deployment][]*group{},
		live:            map[*group]struct{}{},
		byNode:          nodeIndex{},
		byChain:         nodeIndex{},
		pendingSessions: map[*Session]struct{}{},
		suspicion:       map[netmodel.NodeID]int{},
		confirming:      map[netmodel.NodeID]bool{},
		down:            map[netmodel.NodeID]bool{},
	}
	return c
}

// SetProber installs the failure detector: every ProbeIntervalMS the
// loop probes each node targets enumerates, and SuspicionThreshold
// consecutive strikes report the node down to the monitor. The prober's
// data-path evidence (Prober.OnPeerLost) is a strike too, confirmed or
// cleared by one immediate probe. Must be called before Start.
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
	s.reqFP = s.Req.Fingerprint()
	c.sessions = append(c.sessions, s)
	c.mu.Unlock()

	s.mu.Lock()
	s.tracked = true
	dep := s.grp.dep
	s.mu.Unlock()
	var held []string
	if dep != nil {
		held = c.acquire(dep)
	}
	g := c.groupFor(s.reqFP, s.Req, dep, held, c.net.Routes(), nil)
	p := c.newPass()
	p.move(s, nil, g)
	p.end()
	// An access request plans against the reuse set, which may offer an
	// anchor whose upstream chain runs on a node already down: no wave
	// will report that change again, so the session is replanned now.
	if g.facts != nil && !c.chainServes(g) {
		c.scheduleRetry(s)
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
	c.mu.Unlock()

	s.disarm(true)
	s.mu.Lock()
	s.tracked, s.retries = false, 0
	g := s.grp
	s.mu.Unlock()
	p := c.newPass()
	p.move(s, g, nil)
	p.end()
	c.mu.Lock()
	delete(c.pendingSessions, s)
	c.mu.Unlock()
	return c.release(s, 0, g.held)
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
		c.runWave(sessions, false)
	}
}

// Bootstrap plans and commits a deployment for every tracked session in
// one wave (governor bypassed: initial placement is not a cutover).
// Returns the wave report.
func (c *Controller) Bootstrap() WaveReport {
	return c.runWave(c.Sessions(), true)
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
		c.prober.OnPeerLost(c.peerLost)
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
		down, up := c.strikeLocked(node, err)
		c.mu.Unlock()
		if down {
			declareDown = append(declareDown, node)
		}
		if up {
			declareUp = append(declareUp, node)
		}
	}
	for _, node := range declareDown {
		c.suspect(node, fmt.Sprintf("node %s unresponsive after %d probes", node, c.cfg.SuspicionThreshold))
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

// strikeLocked folds one probe outcome into a node's suspicion. A miss
// is a strike, and the one that reaches SuspicionThreshold declares the
// node down (down is true); an answer clears the count and brings a
// declared node back up (up is true).
func (c *Controller) strikeLocked(node netmodel.NodeID, err error) (down, up bool) {
	if err == nil {
		c.suspicion[node] = 0
		if c.down[node] {
			delete(c.down, node)
			return false, true
		}
		return false, false
	}
	c.probesFailed.Inc()
	c.suspicion[node]++
	if c.suspicion[node] >= c.cfg.SuspicionThreshold && !c.down[node] {
		c.down[node] = true
		return true, false
	}
	return false, false
}

// suspect announces a node the detector declared down and reports it
// to the monitor.
func (c *Controller) suspect(node netmodel.NodeID, detail string) {
	c.emit(nil, Event{Kind: "suspect", Detail: detail})
	_ = c.mon.ReportNodeDown(node)
}

// peerLost receives the data path's evidence (Prober.OnPeerLost): a
// connection to addr ended from the far side. It runs on the
// transport's reader goroutine, so it only schedules the confirmation.
func (c *Controller) peerLost(addr string) {
	if !c.isStopped() {
		c.sched.After(0, func() { c.confirm(addr) })
	}
}

// confirm turns evidence against addr into suspicion of the node that
// serves it: the evidence is one strike, and one immediate probe of the
// node's control address is the next — or clears it. An address that
// neither the table nor the probe targets know is ignored, and so is
// evidence against a node already down or already being confirmed, or
// arriving after Stop; the periodic rounds remain the fallback.
func (c *Controller) confirm(addr string) {
	targets := c.targets()
	node, ok := c.nodeServing(addr, targets)
	ctl, probeable := targets[node]
	if !ok || !probeable {
		return
	}
	c.mu.Lock()
	if c.stopped || c.down[node] || c.confirming[node] {
		c.mu.Unlock()
		return
	}
	c.confirming[node] = true
	c.suspicion[node]++
	c.mu.Unlock()

	c.probesSent.Inc()
	err := c.prober.Probe(node, ctl, c.cfg.ProbeTimeoutMS)
	c.mu.Lock()
	delete(c.confirming, node)
	var down, up bool
	if !c.stopped {
		down, up = c.strikeLocked(node, err)
	}
	c.mu.Unlock()
	switch {
	case down:
		c.suspect(node, fmt.Sprintf("node %s lost its connection %s and missed a probe", node, addr))
	case up:
		_ = c.mon.ReportNodeUp(node)
	}
}

// nodeServing maps an address to its node: an instance's address
// through the table, else a node's control address. An instance the
// loop is tearing down maps to nothing (smock.Table.NodeServing).
func (c *Controller) nodeServing(addr string, targets map[netmodel.NodeID]string) (netmodel.NodeID, bool) {
	if addr == "" {
		return "", false
	}
	if node, ok := c.tab.NodeServing(addr); ok {
		return node, true
	}
	for node, ctl := range targets {
		if ctl == addr {
			return node, true
		}
	}
	return "", false
}

// emit names e's session (when s is non-nil) and forwards it to the
// event sink. A zero AtMS is stamped with the current time.
func (c *Controller) emit(s *Session, e Event) {
	if c.onEvent == nil {
		return
	}
	if e.AtMS == 0 {
		e.AtMS = c.sched.NowMS()
	}
	if s != nil {
		e.Session = s.Name
	}
	c.onEvent(e)
}
