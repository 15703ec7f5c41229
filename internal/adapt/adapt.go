// Package adapt closes the paper's adaptation loop as a real subsystem:
// monitor → replan → redeploy, continuously. Section 6 leaves this as
// future work ("the framework be integrated with network monitoring
// tools … whether a new deployment (either incremental or complete) is
// called for"); earlier layers of this reproduction built the pieces —
// netmon reports changes, planner.Replan computes diffs, the smock
// engine realizes them — but gluing them together was manual test
// choreography. The Controller here automates it: it subscribes to the
// monitor, actively probes deployed nodes for liveness, debounces
// change bursts, replans every tracked session, and executes each diff
// as a staged cutover (snapshot state → deploy → publish → flip client
// bindings → drain → teardown) so clients keep getting answers while
// the service re-partitions under them.
//
// The controller is clock-abstracted (Scheduler): the same state
// machine runs on the wall clock against real TCP deployments and on
// the virtual clock inside internal/sim, where its timing behavior is
// deterministic and fast to test.
package adapt

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
)

// Config tunes the controller's timing and thresholds. All durations
// are in (real or virtual) milliseconds.
type Config struct {
	// DebounceMS batches change bursts: the controller replans this long
	// after the last observed change, not once per change (default 50).
	DebounceMS float64
	// ProbeIntervalMS is the heartbeat period for active failure
	// detection; 0 disables probing (passive mode — the controller still
	// reacts to reported changes).
	ProbeIntervalMS float64
	// ProbeTimeoutMS bounds each probe (default 1000).
	ProbeTimeoutMS float64
	// SuspicionThreshold is the number of consecutive probe failures
	// before a node is declared down (default 2). One lost heartbeat is
	// suspicion; only repetition is evidence.
	SuspicionThreshold int
	// DrainMS is how long replaced instances keep running after the
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
	return c
}

// Event is one observable step of the control loop, timestamped on the
// controller's clock. Kind is one of "observe" (changes arrived),
// "suspect" (node declared down by the failure detector), "replan",
// "stage" (cutover stage entered; Detail names it), "adapted",
// "unchanged", or "failed".
type Event struct {
	AtMS    float64
	Kind    string
	Session string
	Detail  string
}

// String renders the event for streaming logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%8.1fms] %-9s", e.AtMS, e.Kind)
	if e.Session != "" {
		s += " " + e.Session
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Session is one client-facing deployment the controller keeps valid:
// the planning request that produced it, the current deployment, and
// the client bindings to flip when the head moves.
type Session struct {
	// Name identifies the session in events.
	Name string
	// Service, when non-empty, is the lookup name under which the head
	// address is (re-)published on every cutover.
	Service string
	// Req is the planning request to replay on every replan.
	Req planner.Request

	mu       sync.Mutex
	dep      *planner.Deployment
	head     string
	bindings []Flippable
}

// NewSession wraps an initial deployment (from GenericServer.Access or
// Engine.Execute) for tracking.
func NewSession(name, service string, req planner.Request, dep *planner.Deployment, headAddr string) *Session {
	return &Session{Name: name, Service: service, Req: req, dep: dep, head: headAddr}
}

// Bind registers a client binding to repoint on cutover.
func (s *Session) Bind(f Flippable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindings = append(s.bindings, f)
}

// Deployment returns the session's current deployment.
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

func (s *Session) snapshot() (*planner.Deployment, string, []Flippable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep, s.head, append([]Flippable(nil), s.bindings...)
}

func (s *Session) commit(dep *planner.Deployment, head string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dep = dep
	s.head = head
}

// Controller runs the adaptation loop. Construct with New, Track the
// sessions to keep valid, then Start.
type Controller struct {
	cfg    Config
	mon    *netmon.Monitor
	exec   Executor
	sched  Scheduler
	prober Prober
	// targets enumerates probe targets (typically Engine.ControlAddrs).
	targets func() map[netmodel.NodeID]string
	onEvent func(Event)

	probesSent, probesFailed  *metrics.Counter
	replans, replanFailures   *metrics.Counter
	adaptations, cutoverFails *metrics.Counter
	cutoverMS                 *metrics.Histogram

	adaptMu sync.Mutex // serializes adaptation passes

	mu             sync.Mutex
	sessions       []*Session
	started        bool
	stopped        bool
	pending        *planner.ChangedSet // changes observed since the last pass
	debounceCancel func() bool
	pool           *ProbePool
	poolOwned      bool
	poolRemoveSrc  func()
	poolRemoveSub  func()
	retryCount     map[string]int
	retryPending   map[string]bool
}

// New builds a controller over a monitor and an executor. prober and
// targets may be nil when cfg.ProbeIntervalMS is 0.
func New(cfg Config, mon *netmon.Monitor, exec Executor, sched Scheduler) *Controller {
	reg := metrics.DefaultRegistry
	return &Controller{
		cfg: cfg.withDefaults(), mon: mon, exec: exec, sched: sched,
		probesSent:     reg.Counter("adapt.probes_sent"),
		probesFailed:   reg.Counter("adapt.probes_failed"),
		replans:        reg.Counter("adapt.replans"),
		replanFailures: reg.Counter("adapt.replan_failures"),
		adaptations:    reg.Counter("adapt.adaptations"),
		cutoverFails:   reg.Counter("adapt.cutover_failures"),
		cutoverMS:      reg.Histogram("adapt.cutover_ms"),
		retryCount:     map[string]int{},
		retryPending:   map[string]bool{},
	}
}

// SetProber installs the failure detector and its target enumerator.
// Must be called before Start. The controller wraps them in a private
// ProbePool; controllers that should share heartbeat streams use
// SetProbePool instead.
func (c *Controller) SetProber(p Prober, targets func() map[netmodel.NodeID]string) {
	c.prober = p
	c.targets = targets
}

// SetProbePool attaches the controller to a shared failure detector:
// its target enumerator (when set via SetProber, or passed to
// Engine wiring) feeds the pool, liveness transitions flow back, and
// the pool probes each node once per round no matter how many
// controllers registered it. Must be called before Start.
func (c *Controller) SetProbePool(p *ProbePool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool = p
	c.poolOwned = false
}

// OnEvent installs an event sink (streamed to logs by psfctl, asserted
// on by tests). Must be called before Start; events are emitted without
// holding controller locks.
func (c *Controller) OnEvent(fn func(Event)) { c.onEvent = fn }

// Track adds a session to keep valid. May be called before or after
// Start.
func (c *Controller) Track(s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessions = append(c.sessions, s)
}

// Untrack stops keeping the named session valid (its deployment is
// left as-is) and drops its retry state; a retry already armed for it
// will not fire. No-op for unknown names.
func (c *Controller) Untrack(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.retryCount, name)
	delete(c.retryPending, name)
	for i, s := range c.sessions {
		if s.Name == name {
			c.sessions = append(c.sessions[:i], c.sessions[i+1:]...)
			return
		}
	}
}

// Kick runs an immediate adaptation pass over every tracked session,
// bypassing the debounce window — the management API's "adapt now".
// Synchronous: it returns when the pass (including any cutovers) is
// done. No-op after Stop.
func (c *Controller) Kick() {
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if !stopped {
		c.adaptAll()
	}
}

// Start subscribes to the monitor and, when configured, starts (or
// joins) the failure-detection loop.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	pool := c.pool
	if pool == nil && c.cfg.ProbeIntervalMS > 0 && c.prober != nil && c.targets != nil {
		// Standalone mode: a private pool reproduces the pre-pool
		// probing behavior exactly (same config knobs, same cadence).
		pool = NewProbePool(c.cfg, c.prober, c.sched)
		c.pool = pool
		c.poolOwned = true
	}
	if pool != nil {
		if c.targets != nil {
			c.poolRemoveSrc = pool.AddSource(c.targets)
		}
		c.poolRemoveSub = pool.Subscribe(c.onLiveness)
	}
	c.mu.Unlock()
	c.mon.Subscribe(c.onChanges)
	if pool != nil {
		pool.Start()
	}
}

// Stop cancels pending timers. Already-running adaptation passes finish;
// no new ones start. (The monitor subscription stays registered but
// becomes inert.)
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	debounce := c.debounceCancel
	c.debounceCancel = nil
	removeSrc, removeSub := c.poolRemoveSrc, c.poolRemoveSub
	c.poolRemoveSrc, c.poolRemoveSub = nil, nil
	pool, owned := c.pool, c.poolOwned
	c.mu.Unlock()
	if debounce != nil {
		debounce()
	}
	if removeSrc != nil {
		removeSrc()
	}
	if removeSub != nil {
		removeSub()
	}
	if pool != nil && owned {
		pool.Stop()
	}
}

func (c *Controller) emit(kind, session, detail string) {
	if c.onEvent == nil {
		return
	}
	c.onEvent(Event{AtMS: c.sched.NowMS(), Kind: kind, Session: session, Detail: detail})
}

// onChanges is the netmon subscriber. It runs synchronously under the
// monitor's mutex, so it must only note the changes and arm the
// debounce timer — all real work happens later, on the scheduler.
func (c *Controller) onChanges(changes []netmon.Change) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	if c.debounceCancel != nil {
		c.debounceCancel() // extend the window: the burst is still going
	}
	if c.pending == nil {
		c.pending = planner.NewChangedSet()
	}
	for _, ch := range changes {
		switch ch.Kind {
		case "node":
			c.pending.AddNode(netmodel.NodeID(ch.Subject))
		case "link":
			if a, b, ok := strings.Cut(ch.Subject, "~"); ok {
				c.pending.AddLink(netmodel.NodeID(a), netmodel.NodeID(b))
			}
		}
	}
	c.debounceCancel = c.sched.After(c.cfg.DebounceMS, c.debounceExpired)
	c.mu.Unlock()
	detail := changes[0].String()
	if len(changes) > 1 {
		detail = fmt.Sprintf("%s (+%d more)", detail, len(changes)-1)
	}
	c.emit("observe", "", detail)
}

func (c *Controller) debounceExpired() {
	c.mu.Lock()
	c.debounceCancel = nil
	stopped := c.stopped
	c.mu.Unlock()
	if !stopped {
		c.adaptAll()
	}
}

// adaptAll replans every tracked session against the current network,
// handing the accumulated changed-element set to the executor so a
// repair-capable planner can scope the re-search to what the changes
// actually touched.
func (c *Controller) adaptAll() {
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	c.mu.Lock()
	sessions := append([]*Session(nil), c.sessions...)
	ch := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, s := range sessions {
		c.adaptSession(s, ch)
	}
}

// RepairExecutor is the optional executor extension for planners with
// an incremental repair path: ch names the network elements that
// changed since the last pass (nil means unknown — full replan).
type RepairExecutor interface {
	RepairReplan(old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error)
}

func (c *Controller) adaptSession(s *Session, ch *planner.ChangedSet) {
	old, oldHead, bindings := s.snapshot()
	c.replans.Inc()
	var diff *planner.Diff
	var err error
	if rx, ok := c.exec.(RepairExecutor); ok && !ch.Empty() {
		diff, err = rx.RepairReplan(old, s.Req, ch)
	} else {
		diff, err = c.exec.Replan(old, s.Req)
	}
	if err != nil {
		c.replanFailures.Inc()
		c.emit("failed", s.Name, fmt.Sprintf("replan: %v", err))
		c.scheduleRetry(s)
		return
	}
	c.emit("replan", s.Name, diffSummary(diff))
	if diff.Unchanged() && len(diff.Evicted) == 0 {
		c.clearRetry(s)
		c.emit("unchanged", s.Name, "")
		return
	}
	start := c.sched.NowMS()
	if err := c.cutover(s, old, bindings, diff); err != nil {
		c.cutoverFails.Inc()
		c.emit("failed", s.Name, err.Error())
		c.scheduleRetry(s)
		return
	}
	c.clearRetry(s)
	c.cutoverMS.Observe(c.sched.NowMS() - start)
	c.adaptations.Inc()
	c.emit("adapted", s.Name, fmt.Sprintf("head %s -> %s", oldHead, s.HeadAddr()))
}

// cutover executes one staged reconfiguration. The invariant is
// deploy-before-teardown: until the new chain is serving and the
// bindings have flipped, the old deployment keeps running, so any
// failure up to the flip leaves clients exactly where they were.
func (c *Controller) cutover(s *Session, old *planner.Deployment, bindings []Flippable, diff *planner.Diff) error {
	c.emit("stage", s.Name, "snapshot")
	states := c.exec.Snapshot(old, diff)

	c.emit("stage", s.Name, "deploy")
	addr, err := c.exec.Deploy(diff, states)
	if err != nil {
		return fmt.Errorf("deploy: %v (old deployment still serving)", err)
	}

	if s.Service != "" {
		c.emit("stage", s.Name, "publish")
		if err := c.exec.Publish(s.Service, addr); err != nil {
			return fmt.Errorf("publish: %v (old deployment still serving)", err)
		}
	}

	c.emit("stage", s.Name, "flip")
	for _, b := range bindings {
		b.SetAddr(addr)
	}
	s.commit(diff.New, addr)

	// Replaced instances drain before teardown: requests already past
	// the flip may still be in flight through them.
	remove := append([]planner.Placement(nil), diff.Remove...)
	if len(remove) > 0 {
		c.emit("stage", s.Name, "drain")
		c.sched.After(c.cfg.DrainMS, func() {
			c.exec.Discard(remove)
			c.emit("stage", s.Name, "teardown")
		})
	}
	return nil
}

func (c *Controller) scheduleRetry(s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.retryPending[s.Name] {
		return
	}
	n := c.retryCount[s.Name]
	if n >= c.cfg.MaxAdaptRetries {
		return // give up until the network changes again
	}
	c.retryCount[s.Name] = n + 1
	c.retryPending[s.Name] = true
	delay := c.cfg.RetryBackoffMS * float64(int(1)<<n)
	c.sched.After(delay, func() {
		c.mu.Lock()
		// A session Untrack removed is gone: adapting it would deploy
		// instances nothing owns.
		tracked := slices.Contains(c.sessions, s)
		if tracked {
			c.retryPending[s.Name] = false
		}
		stopped := c.stopped
		c.mu.Unlock()
		if stopped || !tracked {
			return
		}
		c.adaptMu.Lock()
		// Retries have no changed-set: the previous attempt already
		// consumed it, so they take the full-replan path.
		c.adaptSession(s, nil)
		c.adaptMu.Unlock()
	})
}

func (c *Controller) clearRetry(s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.retryCount, s.Name)
}

// onLiveness receives pool transitions: a down declaration becomes a
// suspect event plus a monitor report (idempotent when several
// controllers share a monitor), a recovery clears it.
func (c *Controller) onLiveness(node netmodel.NodeID, down bool) {
	if down {
		c.emit("suspect", "", fmt.Sprintf("node %s unresponsive after %d probes", node, c.pool.Threshold()))
		_ = c.mon.ReportNodeDown(node)
		return
	}
	_ = c.mon.ReportNodeUp(node)
}

func diffSummary(d *planner.Diff) string {
	return fmt.Sprintf("install=%d remove=%d evicted=%d", len(d.Install), len(d.Remove), len(d.Evicted))
}
