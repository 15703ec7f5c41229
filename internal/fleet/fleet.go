// Package fleet is the session-sharded control plane: one manager
// multiplexing thousands of planner/controller sessions over a single
// shared network model and route cache. The per-session Controller in
// internal/adapt scales the paper's adaptation loop to a handful of
// deployments; it does not scale to a fleet, because every session
// would redundantly re-derive the same facts — the same Dijkstra
// trees, the same replan for the same request shape, the same
// heartbeat stream — and then all cut over at once. The manager
// removes each redundancy structurally:
//
//   - sessions are consistent-hashed onto power-of-two shards; each
//     shard owns one planner instance and its sessions' replan state,
//     so shard workers never contend on planning structures;
//   - one netmon subscription feeds the whole fleet. A topology event
//     debounces into a single replan wave covering exactly the sessions
//     whose deployments touch the changed elements (an index maintained
//     at commit time), pinned to one route-cache epoch — the
//     copy-on-write delta snapshot netmodel mints for link events — so
//     5k sessions replan off one Dijkstra pass;
//   - a shared wave memo dedupes the replans themselves: sessions with
//     identical request fingerprints, reuse sets, and deployment shapes
//     plan once and share the diff;
//   - a global cutover governor paces commits (token bucket) and
//     suppresses per-session flapping (hysteresis);
//   - instances live in a refcounted registry — deployed on first use,
//     torn down on last release — and node heartbeats go through the
//     shared adapt.ProbePool, one stream per endpoint for the whole
//     fleet.
//
// Determinism is load-bearing: with a fixed shard count, the wave
// replan phase writes results into per-session slots and the commit
// phase applies them in global session order, so fleet output is
// byte-identical no matter how many workers drive the wave.
package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"partsvc/internal/adapt"
	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
)

// Config tunes the manager. Shards is state partitioning and changes
// which planner handles which session — it is part of the fleet's
// deterministic identity and defaults to the next power of two ≥
// GOMAXPROCS. Workers is execution parallelism only; any value
// produces identical output.
type Config struct {
	// Shards is the number of session shards; rounded up to a power of
	// two. 0 means the next power of two ≥ GOMAXPROCS.
	Shards int
	// Workers bounds the goroutines driving a wave's replan phase.
	// 0 means GOMAXPROCS. Output-invariant.
	Workers int
	// DebounceMS batches change bursts into one wave (default 50).
	DebounceMS float64
	// HysteresisMS is the per-session anti-flap window: an
	// optimization-only rewire within this many ms of the session's
	// last cutover is suppressed. 0 disables.
	HysteresisMS float64
	// CutoverRatePerSec paces committed cutovers fleet-wide; <= 0
	// disables pacing.
	CutoverRatePerSec float64
	// CutoverBurst is the token-bucket depth (default 32).
	CutoverBurst int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Shards = nextPow2(c.Shards)
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DebounceMS <= 0 {
		c.DebounceMS = 50
	}
	if c.CutoverBurst <= 0 {
		c.CutoverBurst = 32
	}
	return c
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Event is one step of a session's private control stream. Kind is one
// of "planned" (bootstrap deployment committed), "wave" (session
// included in a replan wave), "unchanged", "suppressed" (anti-flap),
// "deferred" (rate-limited; Detail has the commit time), "adapted",
// or "failed".
type Event struct {
	AtMS   float64
	Wave   uint64
	Kind   string
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%10.1fms] w%03d %-10s", e.AtMS, e.Wave, e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// sessionEvents is how many of its latest events a session keeps: a
// long-lived fleet emits two or three per affected session per topology
// event, forever.
const sessionEvents = 256

// Session is one tracked client deployment. All mutation happens
// through the manager; accessors are safe from any goroutine. Req is
// read-only once the session is registered.
type Session struct {
	Name string
	Req  planner.Request

	idx   int // global order (registration order)
	shard int
	reqFP string // Req.Fingerprint(), for the wave key

	mu sync.Mutex
	// dep is the current deployment, facts what the manager derives
	// from it. Both are immutable and shared by every session of the
	// wave group that planned them.
	dep   *planner.Deployment
	facts *depFacts
	// events is a ring of the latest sessionEvents events; once full,
	// evHead is the oldest.
	events        []Event
	evHead        int
	lastCutoverMS float64
	pendingCancel func() bool
}

// depFacts is what the manager needs to know about a deployment, worked
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

// Deployment returns the session's current deployment (nil before
// bootstrap). It is shared with other sessions: treat it as read-only.
func (s *Session) Deployment() *planner.Deployment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep
}

// Events returns a copy of the session's latest events (at most
// sessionEvents of them), oldest first.
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.events))
	out = append(out, s.events[s.evHead:]...)
	return append(out, s.events[:s.evHead]...)
}

// Shard returns the shard the session hashed onto.
func (s *Session) Shard() int { return s.shard }

func (s *Session) emit(e Event) {
	s.mu.Lock()
	if len(s.events) < sessionEvents {
		s.events = append(s.events, e)
	} else {
		s.events[s.evHead] = e
		s.evHead = (s.evHead + 1) % sessionEvents
	}
	s.mu.Unlock()
}

func (s *Session) snapshot() (*planner.Deployment, *depFacts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep, s.facts
}

// cancelPending withdraws a deferred commit: a newer wave's verdict for
// the session supersedes any rate-limited diff still waiting to land.
func (s *Session) cancelPending() {
	s.mu.Lock()
	cancel := s.pendingCancel
	s.pendingCancel = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

type shard struct {
	pl       *planner.Planner
	sessions []*Session
}

// Manager multiplexes sessions over one shared network model.
type Manager struct {
	cfg    Config
	net    *netmodel.Network
	mon    *netmon.Monitor
	sched  adapt.Scheduler
	svc    *spec.Service
	shards []*shard
	gov    *governor
	reg    *registry

	pool     *adapt.ProbePool
	poolAddr func(netmodel.NodeID) string

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
	flapsSuppressed     *metrics.Counter
	evictions           *metrics.Counter

	mu             sync.Mutex
	sessions       []*Session // global order
	byNode         map[netmodel.NodeID]map[int]struct{}
	started        bool
	stopped        bool
	debounceCancel func() bool
	pendingAll     bool
	pendingIdx     map[int]struct{}
	pendingCh      *planner.ChangedSet // changed elements since the last wave
	waveSeq        uint64
	onWave         func(WaveReport)
	onEvent        func(session string, e Event)
}

// WaveReport summarizes one completed replan wave (emitted after its
// commit phase; deferred commits may still be scheduled).
type WaveReport struct {
	Wave         uint64
	StartMS      float64
	Sessions     int
	PlanComputes int
	MemoHits     int
	// MemoLookups is the number of wave-memo lookups the wave issued:
	// with per-shape batching this is the distinct shapes per shard, not
	// one lookup per session.
	MemoLookups  int
	RouteLookups int
	Cutovers     int
	Deferred     int
	Suppressed   int
	Unchanged    int
	Failed       int
	SpanMS       float64
	Epoch        uint64
}

// New builds a manager over a shared network, its monitor, and a
// scheduler (virtual or wall-clock).
func New(cfg Config, svc *spec.Service, net *netmodel.Network, mon *netmon.Monitor, sched adapt.Scheduler) *Manager {
	cfg = cfg.withDefaults()
	reg := metrics.DefaultRegistry
	m := &Manager{
		cfg:   cfg,
		net:   net,
		mon:   mon,
		sched: sched,
		svc:   svc,
		gov:   newGovernor(cfg.CutoverRatePerSec, cfg.CutoverBurst, cfg.HysteresisMS),
		reg:   newRegistry(),

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
		flapsSuppressed:     reg.Counter("fleet.flaps_suppressed"),
		evictions:           reg.Counter("fleet.evictions"),

		byNode:     map[netmodel.NodeID]map[int]struct{}{},
		pendingIdx: map[int]struct{}{},
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{pl: planner.New(svc, net)}
	}
	return m
}

// Shards returns the effective (power-of-two) shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// OnWave installs a wave-report sink (benchmarks, logs). Must be set
// before Start.
func (m *Manager) OnWave(fn func(WaveReport)) { m.onWave = fn }

// OnEvent installs a live event sink: every per-session control event
// (session = the session's name) plus the manager-level wave lifecycle
// ("wave-open"/"wave-close", session = ""). Must be set before Start;
// called without manager locks held.
func (m *Manager) OnEvent(fn func(session string, e Event)) { m.onEvent = fn }

// emitSession records e in the session's private stream and forwards
// it to the manager's event sink.
func (m *Manager) emitSession(s *Session, e Event) {
	s.emit(e)
	if m.onEvent != nil {
		m.onEvent(s.Name, e)
	}
}

// emitWave publishes a manager-level wave lifecycle event.
func (m *Manager) emitWave(e Event) {
	if m.onEvent != nil {
		m.onEvent("", e)
	}
}

// AttachProbePool wires the fleet to a shared failure detector:
// committed deployments acquire their nodes' heartbeat streams
// (refcounted — one stream per node for the whole fleet), and liveness
// transitions flow into the monitor, which triggers waves. addrOf maps
// a node to its probe endpoint.
func (m *Manager) AttachProbePool(pool *adapt.ProbePool, addrOf func(netmodel.NodeID) string) {
	m.pool = pool
	m.poolAddr = addrOf
	pool.Subscribe(func(node netmodel.NodeID, down bool) {
		if down {
			_ = m.mon.ReportNodeDown(node)
			return
		}
		_ = m.mon.ReportNodeUp(node)
	})
}

// AddPrimary registers service-owner infrastructure (e.g. the primary
// MailServer) shared by every session and exempt from teardown.
func (m *Manager) AddPrimary(component string, node netmodel.NodeID) (planner.Placement, error) {
	p, err := m.shards[0].pl.PrimaryPlacement(component, node)
	if err != nil {
		return planner.Placement{}, err
	}
	m.reg.pin(p)
	return p, nil
}

// shardOf consistent-hashes a session name onto a shard. The shard
// count is a power of two, so the mask keeps the full hash's mixing.
func (m *Manager) shardOf(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() & uint64(len(m.shards)-1))
}

// AddSession registers a session. Call before Bootstrap; sessions added
// later join the next wave that touches them.
func (m *Manager) AddSession(name string, req planner.Request) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Session{
		Name:          name,
		Req:           req,
		idx:           len(m.sessions),
		shard:         m.shardOf(name),
		reqFP:         req.Fingerprint(),
		lastCutoverMS: math.Inf(-1),
	}
	m.sessions = append(m.sessions, s)
	m.shards[s.shard].sessions = append(m.shards[s.shard].sessions, s)
	return s
}

// Sessions returns the tracked sessions in registration order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Session(nil), m.sessions...)
}

// SessionsPerShard returns the shard occupancy histogram.
func (m *Manager) SessionsPerShard() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.shards))
	for i, sh := range m.shards {
		out[i] = len(sh.sessions)
	}
	return out
}

// Instances returns the number of live shared instances.
func (m *Manager) Instances() int { return m.reg.size() }

// Start subscribes the manager to the monitor. Bootstrap first.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.mon.Subscribe(m.onChanges)
	if m.pool != nil {
		m.pool.Start()
	}
}

// Stop cancels pending wave timers and deferred commits.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.stopped = true
	debounce := m.debounceCancel
	m.debounceCancel = nil
	sessions := append([]*Session(nil), m.sessions...)
	m.mu.Unlock()
	if debounce != nil {
		debounce()
	}
	for _, s := range sessions {
		s.mu.Lock()
		cancel := s.pendingCancel
		s.pendingCancel = nil
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	if m.pool != nil {
		m.pool.Stop()
	}
}

// Bootstrap plans and commits an initial deployment for every session
// in one wave (governor bypassed: initial placement is not a cutover).
// Returns the wave report.
func (m *Manager) Bootstrap() WaveReport {
	m.mu.Lock()
	all := make([]int, len(m.sessions))
	for i := range all {
		all[i] = i
	}
	m.mu.Unlock()
	return m.runWave(all, true, nil)
}

// onChanges is the fleet's single netmon subscription. It runs under
// the monitor's notify path, so it only classifies the changes into the
// pending-wave session set and arms the debounce timer.
func (m *Manager) onChanges(changes []netmon.Change) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	if m.pendingCh == nil {
		m.pendingCh = planner.NewChangedSet()
	}
	for _, ch := range changes {
		for _, idx := range m.affectedByLocked(ch) {
			m.pendingIdx[idx] = struct{}{}
		}
		switch ch.Kind {
		case "node":
			m.pendingCh.AddNode(netmodel.NodeID(ch.Subject))
		case "link":
			if a, b, ok := strings.Cut(ch.Subject, "~"); ok {
				m.pendingCh.AddLink(netmodel.NodeID(a), netmodel.NodeID(b))
			}
		}
	}
	if m.debounceCancel != nil {
		m.debounceCancel()
	}
	m.debounceCancel = m.sched.After(m.cfg.DebounceMS, m.debounceExpired)
}

// affectedByLocked scopes one change to the sessions it can affect.
// Degradations are local: only sessions whose deployments touch the
// changed element need replanning (the index tracks every node a
// session's placements and paths traverse; a link's users necessarily
// traverse both endpoints). Improvements — a better link, a recovered
// node, a property change — are optimization opportunities for any
// session that can *reach* the changed element, and for no one else: a
// session in a different network partition cannot use it, must not be
// replanned for it, and must not even see the wave in its event stream.
func (m *Manager) affectedByLocked(ch netmon.Change) []int {
	if m.pendingAll {
		return nil
	}
	scoped := func(nodes ...netmodel.NodeID) []int {
		var sets []map[int]struct{}
		for _, n := range nodes {
			sets = append(sets, m.byNode[n])
		}
		var out []int
		for idx := range sets[0] {
			in := true
			for _, s := range sets[1:] {
				if _, ok := s[idx]; !ok {
					in = false
					break
				}
			}
			if in {
				out = append(out, idx)
			}
		}
		return out
	}
	// reachable: every session whose client node has a route to the
	// changed element. The monitor applies changes before notifying, so
	// the current route handle already reflects this change; all client
	// lookups share the element's single shortest-path tree.
	reachable := func(node netmodel.NodeID) []int {
		rc := m.net.Routes()
		var out []int
		for idx, s := range m.sessions {
			if _, ok := rc.Path(node, s.Req.ClientNode); ok {
				out = append(out, idx)
			}
		}
		return out
	}
	global := func() []int {
		m.pendingAll = true
		return nil
	}
	switch ch.Kind {
	case "node":
		node := netmodel.NodeID(ch.Subject)
		if ch.Field == "up" {
			if ch.New == "true" {
				return reachable(node) // recovery: opportunity for its partition
			}
			return scoped(node)
		}
		// A property change (trust drop or raise) can repel sessions
		// using the node or attract sessions that can reach it; the
		// reachable set covers both.
		return reachable(node)
	case "link":
		a, b, ok := strings.Cut(ch.Subject, "~")
		if !ok {
			return global()
		}
		switch ch.Field {
		case "latency":
			if improved(ch.Old, ch.New, false) {
				return reachable(netmodel.NodeID(a))
			}
		case "bandwidth":
			if improved(ch.Old, ch.New, true) {
				return reachable(netmodel.NodeID(a))
			}
		default: // secure flips can attract or repel: the whole partition
			return reachable(netmodel.NodeID(a))
		}
		return scoped(netmodel.NodeID(a), netmodel.NodeID(b))
	}
	return global()
}

// improved reports whether old→new is an improvement (higherIsBetter
// selects the ordering). Unparseable values degrade to "improved" so
// scoping stays conservative.
func improved(oldS, newS string, higherIsBetter bool) bool {
	o, err1 := strconv.ParseFloat(oldS, 64)
	n, err2 := strconv.ParseFloat(newS, 64)
	if err1 != nil || err2 != nil {
		return true
	}
	if higherIsBetter {
		return n > o
	}
	return n < o
}

func (m *Manager) debounceExpired() {
	m.mu.Lock()
	m.debounceCancel = nil
	if m.stopped {
		m.mu.Unlock()
		return
	}
	var affected []int
	if m.pendingAll {
		affected = make([]int, len(m.sessions))
		for i := range affected {
			affected[i] = i
		}
	} else {
		affected = make([]int, 0, len(m.pendingIdx))
		for idx := range m.pendingIdx {
			affected = append(affected, idx)
		}
		sort.Ints(affected)
	}
	m.pendingAll = false
	m.pendingIdx = map[int]struct{}{}
	ch := m.pendingCh
	m.pendingCh = nil
	m.mu.Unlock()
	if len(affected) > 0 {
		m.runWave(affected, false, ch)
	}
}

// waveResult is one session's slot in the wave's replan phase. Every
// member of a wave group holds the same diff.
type waveResult struct {
	diff *planner.Diff
	hit  bool
	err  error
}

// runWave executes one replan wave over the affected sessions:
// a parallel replan phase — shard-grained workers, routes pinned to one
// epoch, reuse sets synced from one registry snapshot, computations
// deduped through a shared memo — then a sequential commit phase in
// global session order, governed by the cutover brake. bootstrap
// bypasses the governor.
func (m *Manager) runWave(affected []int, bootstrap bool, ch *planner.ChangedSet) WaveReport {
	m.mu.Lock()
	m.waveSeq++
	wave := m.waveSeq
	sessions := m.sessions
	m.mu.Unlock()

	startMS := m.sched.NowMS()
	rc := m.net.Routes()
	epoch := rc.Epoch()
	snapshot := m.reg.placements()
	m.emitWave(Event{AtMS: startMS, Wave: wave, Kind: "wave-open",
		Detail: fmt.Sprintf("sessions=%d epoch=%d", len(affected), epoch)})

	// One reuse-set fingerprint for the whole wave: every shard planner
	// is synced from the same snapshot, so it is computed once.
	fpPl := m.shards[0].pl
	fpPl.Existing = append(fpPl.Existing[:0], snapshot...)
	existingFP := fpPl.ExistingFingerprint()

	rh0, rm0 := rc.Counters()
	memo := planner.NewWaveMemo()

	// Group the wave's sessions by shard; order within a shard follows
	// global order (affected is sorted).
	byShard := make([][]int, len(m.shards))
	for _, idx := range affected {
		sh := sessions[idx].shard
		byShard[sh] = append(byShard[sh], idx)
	}
	slots := make([]waveResult, len(sessions))

	work := make([]int, 0, len(m.shards))
	for sh, idxs := range byShard {
		if len(idxs) > 0 {
			work = append(work, sh)
		}
	}
	var memoLookups atomic.Uint64
	runShard := func(sh int) {
		pl := m.shards[sh].pl
		pl.PinRoutes(rc)
		defer pl.PinRoutes(nil)
		// Batch the shard's sessions by wave key first: same-shaped
		// sessions resolve through ONE memo lookup (and at most one
		// computation), not one lookup per session — the residual serial
		// cost the per-session loop used to pay on every memo hit.
		// A group is named by what its members were registered and
		// committed with — the request fingerprint and the deployment
		// shape — so a wave builds no strings per session; the wave-wide
		// parts of the key are added once per group.
		type groupKey struct{ reqFP, shape string }
		type waveGroup struct {
			groupKey
			dep  *planner.Deployment
			req  planner.Request
			idxs []int
		}
		order := make([]*waveGroup, 0, len(byShard[sh]))
		groups := map[groupKey]*waveGroup{}
		for _, idx := range byShard[sh] {
			s := sessions[idx]
			dep, facts := s.snapshot()
			key := groupKey{reqFP: s.reqFP}
			if facts != nil {
				key.shape = facts.summary
			}
			g, ok := groups[key]
			if !ok {
				g = &waveGroup{groupKey: key, dep: dep, req: s.Req}
				groups[key] = g
				order = append(order, g) // first-occurrence order: deterministic
			}
			g.idxs = append(g.idxs, idx)
		}
		for _, g := range order {
			memoLookups.Add(1)
			g := g
			key := planner.WaveKey(g.reqFP, existingFP, epoch, g.shape)
			diff, _, hit, err := memo.Do(key, func() (*planner.Diff, planner.Stats, error) {
				// Each computation plans against the wave-start world:
				// the planner's reuse set is re-synced so earlier
				// sessions' in-wave mutations never leak across
				// sessions (or shards — this is what keeps output
				// invariant under any shard count). The changed-element
				// set scopes the planner's repair; a repair that moves
				// nothing continues as the full rewire replan.
				pl.Existing = append(pl.Existing[:0], snapshot...)
				d, err := pl.RepairReplan(g.dep, g.req, ch)
				return d, pl.Stats(), err
			})
			for k, idx := range g.idxs {
				slots[idx] = waveResult{diff: diff, hit: hit || k > 0, err: err}
			}
		}
	}
	if workers := m.cfg.Workers; workers > 1 && len(work) > 1 {
		if workers > len(work) {
			workers = len(work)
		}
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sh := range ch {
					runShard(sh)
				}
			}()
		}
		for _, sh := range work {
			ch <- sh
		}
		close(ch)
		wg.Wait()
	} else {
		for _, sh := range work {
			runShard(sh)
		}
	}

	_, misses := memo.Counters()
	rh1, rm1 := rc.Counters()
	report := WaveReport{
		Wave:         wave,
		StartMS:      startMS,
		Sessions:     len(affected),
		PlanComputes: int(misses),
		MemoLookups:  int(memoLookups.Load()),
		RouteLookups: int((rh1 + rm1) - (rh0 + rm0)),
		Epoch:        epoch,
	}
	// MemoHits counts sessions that shared another session's computation
	// (in-shard batch members and cross-shard memo hits alike), so
	// Sessions = PlanComputes + MemoHits + (failed computes' extra members).
	for _, idx := range affected {
		if slots[idx].hit {
			report.MemoHits++
		}
	}

	// Commit phase: sequential, global session order. What depends only
	// on the deployment is worked out once per distinct one (group
	// members share theirs), and the node index is updated once, after
	// the last commit.
	lastCommitMS := startMS
	evicted := map[string]bool{}
	facts := map[*planner.Deployment]*depFacts{}
	var moves []indexMove
	for _, idx := range affected {
		s := sessions[idx]
		r := slots[idx]
		now := m.sched.NowMS()
		// This wave's verdict supersedes any deferred commit still
		// queued from an earlier wave: that diff was planned against a
		// topology view this wave has already replaced.
		s.cancelPending()
		if r.err != nil {
			report.Failed++
			m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: "failed", Detail: r.err.Error()})
			continue
		}
		if !bootstrap {
			m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: "wave"})
		}
		diff := r.diff
		// Evictions are registry-level facts, applied once per wave no
		// matter how many sessions' replans reported them.
		for _, p := range diff.Evicted {
			if !evicted[p.Key()] {
				evicted[p.Key()] = true
				m.reg.evict(p.Key())
				m.evictions.Inc()
			}
		}
		old, _ := s.snapshot()
		if diff.Unchanged() && old != nil {
			report.Unchanged++
			m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: "unchanged"})
			continue
		}
		forced := bootstrap || m.depBroken(old, rc)
		if !bootstrap {
			s.mu.Lock()
			lastCut := s.lastCutoverMS
			s.mu.Unlock()
			if m.gov.suppressed(now, lastCut, forced) {
				report.Suppressed++
				m.flapsSuppressed.Inc()
				m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: "suppressed"})
				continue
			}
		}
		commitAt := now
		if !bootstrap {
			commitAt = m.gov.reserveAt(now)
		}
		if commitAt > lastCommitMS {
			lastCommitMS = commitAt
		}
		if commitAt > now {
			report.Deferred++
			m.cutoversRateLimited.Inc()
			m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: "deferred",
				Detail: fmt.Sprintf("commit at %.1fms", commitAt)})
			m.scheduleCommit(s, wave, diff, commitAt-now)
			continue
		}
		f := facts[diff.New]
		if f == nil {
			f = factsOf(diff.New)
			facts[diff.New] = f
		}
		moves = append(moves, m.commit(s, wave, diff.New, f, bootstrap))
		report.Cutovers++
	}
	m.reindex(moves)
	report.SpanMS = lastCommitMS - startMS

	m.waves.Inc()
	m.waveSessions.Observe(float64(report.Sessions))
	m.waveSpanMS.Observe(report.SpanMS)
	m.replansTotal.Add(int64(report.Sessions))
	m.planComputes.Add(int64(report.PlanComputes))
	m.memoHits.Add(int64(report.MemoHits))
	m.memoLookups.Add(int64(report.MemoLookups))
	m.routeLookups.Add(int64(report.RouteLookups))
	m.cutovers.Add(int64(report.Cutovers))
	m.emitWave(Event{AtMS: m.sched.NowMS(), Wave: wave, Kind: "wave-close",
		Detail: fmt.Sprintf(
			"sessions=%d computes=%d memo_hits=%d cutovers=%d deferred=%d suppressed=%d unchanged=%d failed=%d span=%.1fms",
			report.Sessions, report.PlanComputes, report.MemoHits, report.Cutovers,
			report.Deferred, report.Suppressed, report.Unchanged, report.Failed, report.SpanMS)})
	if m.onWave != nil {
		m.onWave(report)
	}
	return report
}

// depBroken reports whether a deployment is no longer serving — a node
// died under it, or the network partitioned between consecutive
// placements. Broken deployments force their cutover past anti-flap
// hysteresis (suppressing the repair of a dead session would be
// availability loss, not flap damping).
func (m *Manager) depBroken(dep *planner.Deployment, rc *netmodel.RouteCache) bool {
	if dep == nil {
		return true
	}
	for _, p := range dep.Placements {
		if n, ok := m.net.Node(p.Node); !ok || n.Down {
			return true
		}
	}
	for i := 0; i+1 < len(dep.Placements); i++ {
		if _, ok := rc.Path(dep.Placements[i].Node, dep.Placements[i+1].Node); !ok {
			return true
		}
	}
	return false
}

// scheduleCommit arms a deferred commit (the commit-phase loop already
// withdrew any previous one).
func (m *Manager) scheduleCommit(s *Session, wave uint64, diff *planner.Diff, delayMS float64) {
	cancel := m.sched.After(delayMS, func() {
		s.mu.Lock()
		s.pendingCancel = nil
		s.mu.Unlock()
		m.mu.Lock()
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			return
		}
		m.reindex([]indexMove{m.commit(s, wave, diff.New, factsOf(diff.New), false)})
		m.cutovers.Inc()
	})
	s.mu.Lock()
	s.pendingCancel = cancel
	s.mu.Unlock()
}

// indexMove is one committed session's change of footprint, for
// reindex.
type indexMove struct {
	idx      int
	old, new *depFacts
}

// commit moves one session onto dep: acquire-before-release against the
// shared registry (deploy-before-teardown at fleet scope), heartbeat
// refcounts, and the session's own state. The caller folds the returned
// footprint change into the affected-session index.
func (m *Manager) commit(s *Session, wave uint64, dep *planner.Deployment, facts *depFacts, bootstrap bool) indexMove {
	now := m.sched.NowMS()
	// A deferred commit may land after a newer wave already rewired the
	// session; the newer wave canceled us, but guard against the race
	// where both were already scheduled at the same virtual instant.
	old, oldFacts := s.snapshot()

	for _, p := range dep.Placements {
		m.reg.acquire(p)
		if m.pool != nil && m.poolAddr != nil {
			m.pool.Acquire(p.Node, m.poolAddr(p.Node))
		}
	}
	if old != nil {
		for _, p := range old.Placements {
			m.reg.release(p.Key())
			if m.pool != nil {
				m.pool.Release(p.Node)
			}
		}
	}

	s.mu.Lock()
	s.dep, s.facts = dep, facts
	if !bootstrap {
		s.lastCutoverMS = now
	}
	s.mu.Unlock()

	kind := "adapted"
	if bootstrap {
		kind = "planned"
	}
	m.emitSession(s, Event{AtMS: now, Wave: wave, Kind: kind, Detail: facts.summary})
	return indexMove{idx: s.idx, old: oldFacts, new: facts}
}

// reindex swaps committed sessions' entries in the node→sessions index
// from their old deployments' footprints to the new ones.
func (m *Manager) reindex(moves []indexMove) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mv := range moves {
		if mv.old != nil {
			for _, n := range mv.old.footprint {
				if set := m.byNode[n]; set != nil {
					delete(set, mv.idx)
					if len(set) == 0 {
						delete(m.byNode, n)
					}
				}
			}
		}
		for _, n := range mv.new.footprint {
			set := m.byNode[n]
			if set == nil {
				set = map[int]struct{}{}
				m.byNode[n] = set
			}
			set[mv.idx] = struct{}{}
		}
	}
}

// factsOf derives the manager's view of a deployment.
func factsOf(dep *planner.Deployment) *depFacts {
	f := &depFacts{summary: depSummary(dep)}
	add := func(n netmodel.NodeID) {
		for _, seen := range f.footprint {
			if seen == n {
				return
			}
		}
		f.footprint = append(f.footprint, n)
	}
	for _, p := range dep.Placements {
		add(p.Node)
	}
	for _, e := range dep.Edges {
		for _, n := range e.Path.Nodes {
			add(n)
		}
	}
	return f
}

// depSummary renders a deployment as its placement chain.
func depSummary(dep *planner.Deployment) string {
	if dep == nil {
		return "<none>"
	}
	parts := make([]string, len(dep.Placements))
	for i, p := range dep.Placements {
		parts[i] = p.Key()
	}
	return strings.Join(parts, " -> ")
}
