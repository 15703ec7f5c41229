package adapt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
)

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

// onChanges is the loop's netmon subscription. It runs under the
// monitor's notify path, so it only classifies the changes into the
// pending-wave session set and arms the debounce timer.
func (c *Controller) onChanges(changes []netmon.Change) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	if c.pendingCh == nil {
		c.pendingCh = planner.NewChangedSet()
	}
	for _, ch := range changes {
		for _, s := range c.affectedByLocked(ch) {
			c.pending[s] = struct{}{}
		}
		switch ch.Kind {
		case "node":
			c.pendingCh.AddNode(netmodel.NodeID(ch.Subject))
		case "link":
			if a, b, ok := strings.Cut(ch.Subject, "~"); ok {
				c.pendingCh.AddLink(netmodel.NodeID(a), netmodel.NodeID(b))
			}
		}
	}
	if c.debounceCancel != nil {
		c.debounceCancel() // extend the window: the burst is still going
	}
	c.debounceCancel = c.sched.After(c.cfg.DebounceMS, c.debounceExpired)
	c.mu.Unlock()
	if c.onEvent != nil {
		detail := changes[0].String()
		if len(changes) > 1 {
			detail = fmt.Sprintf("%s (+%d more)", detail, len(changes)-1)
		}
		c.emit(nil, Event{Kind: "observe", Detail: detail})
	}
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
func (c *Controller) affectedByLocked(ch netmon.Change) []*Session {
	if c.pendingAll {
		return nil
	}
	// scoped: the sessions whose footprint holds a, and b unless b is "".
	scoped := func(a, b netmodel.NodeID) []*Session {
		var out []*Session
		for s := range c.byNode[a] {
			if _, ok := c.byNode[b][s]; ok || b == "" {
				out = append(out, s)
			}
		}
		return out
	}
	// reachable: every session whose client node has a route to the
	// changed element. The monitor applies changes before notifying, so
	// the current route handle already reflects this change; all client
	// lookups share the element's single shortest-path tree.
	reachable := func(node netmodel.NodeID) []*Session {
		rc := c.net.Routes()
		var out []*Session
		for _, s := range c.sessions {
			if _, ok := rc.Path(node, s.Req.ClientNode); ok {
				out = append(out, s)
			}
		}
		return out
	}
	switch ch.Kind {
	case "node":
		node := netmodel.NodeID(ch.Subject)
		if ch.Field == "up" && ch.New != "true" {
			return scoped(node, "")
		}
		// A recovery is an opportunity for its partition; a property
		// change (trust drop or raise) can repel sessions using the node
		// or attract sessions that can reach it: the reachable set covers
		// both.
		return reachable(node)
	case "link":
		a, b, ok := strings.Cut(ch.Subject, "~")
		if !ok {
			break
		}
		// Secure flips can attract or repel: the whole partition.
		if ch.Field != "latency" && ch.Field != "bandwidth" || improved(ch.Old, ch.New, ch.Field == "bandwidth") {
			return reachable(netmodel.NodeID(a))
		}
		return scoped(netmodel.NodeID(a), netmodel.NodeID(b))
	}
	c.pendingAll = true
	return nil
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

func (c *Controller) debounceExpired() {
	c.mu.Lock()
	c.debounceCancel = nil
	if c.stopped {
		c.mu.Unlock()
		return
	}
	var affected []*Session
	if c.pendingAll {
		affected = append(affected, c.sessions...)
	} else {
		affected = make([]*Session, 0, len(c.pending))
		for s := range c.pending {
			affected = append(affected, s)
		}
		sort.Slice(affected, func(i, j int) bool { return affected[i].idx < affected[j].idx })
	}
	c.pendingAll = false
	clear(c.pending)
	ch := c.pendingCh
	c.pendingCh = nil
	c.mu.Unlock()
	if len(affected) > 0 {
		c.runWave(affected, false, ch)
	}
}

// waveResult is one session's slot in the wave's replan phase. Every
// member of a wave group holds the same diff.
type waveResult struct {
	diff *planner.Diff
	hit  bool
	err  error
}

// runWave executes one replan wave over the affected sessions (in
// tracking order): a parallel replan phase — shard-grained workers,
// computations deduped through a shared memo — then a sequential commit
// phase in session order, governed by the cutover brake. bootstrap
// bypasses the governor.
func (c *Controller) runWave(affected []*Session, bootstrap bool, ch *planner.ChangedSet) WaveReport {
	c.waveMu.Lock()
	defer c.waveMu.Unlock()
	c.mu.Lock()
	c.waveSeq++
	wave := c.waveSeq
	c.mu.Unlock()
	// A session Untrack removed after the wave was scheduled is gone:
	// planning it would deploy instances nothing owns.
	tracked := affected[:0]
	for _, s := range affected {
		s.mu.Lock()
		if s.tracked {
			tracked = append(tracked, s)
		}
		s.mu.Unlock()
	}
	affected = tracked

	startMS := c.sched.NowMS()
	rc := c.net.Routes()
	epoch := rc.Epoch()
	if c.onEvent != nil {
		c.emit(nil, Event{AtMS: startMS, Wave: wave, Kind: "wave-open",
			Detail: fmt.Sprintf("sessions=%d epoch=%d", len(affected), epoch)})
	}
	rh0, rm0 := rc.Counters()
	memo := planner.NewWaveMemo()

	// Group the wave's sessions by shard; order within a shard follows
	// session order.
	byShard := make([][]int, len(c.planners))
	for pos, s := range affected {
		byShard[s.shard] = append(byShard[s.shard], pos)
	}
	slots := make([]waveResult, len(affected))
	work := make([]int, 0, len(c.planners))
	for sh, ps := range byShard {
		if len(ps) > 0 {
			work = append(work, sh)
		}
	}
	var memoLookups atomic.Uint64
	runShard := func(sh int) {
		x := c.planners[sh]
		// Batch the shard's sessions by what they were tracked and
		// committed with — the request fingerprint and the deployment
		// shape — so same-shaped sessions resolve through ONE memo lookup
		// (and at most one computation) and the wave builds no strings per
		// session.
		type groupKey struct{ reqFP, shape string }
		type waveGroup struct {
			groupKey
			dep  *planner.Deployment
			req  planner.Request
			poss []int
		}
		order := make([]*waveGroup, 0, len(byShard[sh]))
		groups := map[groupKey]*waveGroup{}
		for _, pos := range byShard[sh] {
			s := affected[pos]
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
			g.poss = append(g.poss, pos)
		}
		for _, g := range order {
			memoLookups.Add(1)
			// The memo lives for one wave, whose reuse set and route epoch
			// are fixed: request and shape name a computation. The
			// changed-element set scopes the planner's repair; a repair
			// that moves nothing continues as the full rewire replan.
			diff, _, hit, err := memo.Do(g.reqFP+"#"+g.shape, func() (*planner.Diff, planner.Stats, error) {
				d, err := x.RepairReplan(g.dep, g.req, ch)
				return d, planner.Stats{}, err
			})
			for k, pos := range g.poss {
				slots[pos] = waveResult{diff: diff, hit: hit || k > 0, err: err}
			}
		}
	}
	// Workers pull shards off a shared cursor; one worker runs inline.
	var cursor atomic.Int64
	drive := func() {
		for i := int(cursor.Add(1)) - 1; i < len(work); i = int(cursor.Add(1)) - 1 {
			runShard(work[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(c.cfg.Workers, len(work)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive()
		}()
	}
	drive()
	wg.Wait()

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
	for _, r := range slots {
		if r.hit {
			report.MemoHits++
		}
	}

	// Commit phase: sequential, session order. What depends only on the
	// deployment is worked out once per distinct one (group members share
	// theirs), and the node index is updated once, after the last commit.
	lastCommitMS := startMS
	evicted := map[string]bool{}
	var unheld []string
	facts := map[*planner.Deployment]*depFacts{}
	var moves []indexMove
	for pos, s := range affected {
		r := slots[pos]
		now := c.sched.NowMS()
		// This wave's verdict supersedes any deferred commit still queued
		// from an earlier wave: that diff was planned against a topology
		// view this wave has already replaced.
		s.disarm(false)
		if r.err != nil {
			report.Failed++
			c.fail(s, wave, "replan: "+r.err.Error())
			continue
		}
		if !bootstrap {
			c.emit(s, Event{AtMS: now, Wave: wave, Kind: "replan"})
		}
		diff := r.diff
		// Evictions are table-level facts, applied once per wave no
		// matter how many sessions' replans reported them.
		for _, p := range diff.Evicted {
			if !evicted[p.Key()] {
				evicted[p.Key()] = true
				unheld = append(unheld, c.tab.Evict(p.Key())...)
				c.evictions.Inc()
			}
		}
		old, _ := s.snapshot()
		if diff.Unchanged() && old != nil {
			report.Unchanged++
			s.mu.Lock()
			s.retries = 0
			s.mu.Unlock()
			c.emit(s, Event{AtMS: now, Wave: wave, Kind: "unchanged"})
			continue
		}
		forced := bootstrap || c.depBroken(old, rc)
		if !bootstrap {
			s.mu.Lock()
			lastCut := s.lastCutoverMS
			s.mu.Unlock()
			if c.gov.suppressed(now, lastCut, forced) {
				report.Suppressed++
				c.flapsSuppressed.Inc()
				c.emit(s, Event{AtMS: now, Wave: wave, Kind: "suppressed"})
				continue
			}
		}
		commitAt := now
		if !bootstrap {
			commitAt = c.gov.reserveAt(now)
		}
		lastCommitMS = max(lastCommitMS, commitAt)
		if commitAt > now {
			report.Deferred++
			c.cutoversRateLimited.Inc()
			c.emit(s, Event{AtMS: now, Wave: wave, Kind: "deferred",
				Detail: fmt.Sprintf("commit at %.1fms", commitAt)})
			c.scheduleCommit(s, wave, diff, commitAt-now)
			continue
		}
		f := facts[diff.New]
		if f == nil {
			f = factsOf(diff.New)
			facts[diff.New] = f
		}
		mv, err := c.commit(s, wave, diff, f, bootstrap)
		if err != nil {
			report.Failed++
			c.fail(s, wave, err.Error())
			continue
		}
		moves = append(moves, mv)
		report.Cutovers++
	}
	c.reindex(moves)
	// No session's release will tear down an evicted instance no session
	// holds, and a cutover may never run for it (its replan can come back
	// unchanged): it goes now.
	c.discard(unheld)
	report.SpanMS = lastCommitMS - startMS

	c.waves.Inc()
	c.waveSessions.Observe(float64(report.Sessions))
	c.waveSpanMS.Observe(report.SpanMS)
	c.replansTotal.Add(int64(report.Sessions))
	c.planComputes.Add(int64(report.PlanComputes))
	c.memoHits.Add(int64(report.MemoHits))
	c.memoLookups.Add(int64(report.MemoLookups))
	c.routeLookups.Add(int64(report.RouteLookups))
	c.cutovers.Add(int64(report.Cutovers))
	if c.onEvent != nil {
		c.emit(nil, Event{Wave: wave, Kind: "wave-close", Detail: fmt.Sprintf(
			"sessions=%d computes=%d memo_hits=%d cutovers=%d deferred=%d suppressed=%d unchanged=%d failed=%d span=%.1fms",
			report.Sessions, report.PlanComputes, report.MemoHits, report.Cutovers,
			report.Deferred, report.Suppressed, report.Unchanged, report.Failed, report.SpanMS)})
	}
	if c.onWave != nil {
		c.onWave(report)
	}
	return report
}

// depBroken reports whether a deployment is no longer serving — a node
// died under it, or the network partitioned between consecutive
// placements. Broken deployments force their cutover past anti-flap
// hysteresis (suppressing the repair of a dead session would be
// availability loss, not flap damping).
func (c *Controller) depBroken(dep *planner.Deployment, rc *netmodel.RouteCache) bool {
	if dep == nil {
		return true
	}
	for _, p := range dep.Placements {
		if n, ok := c.net.Node(p.Node); !ok || n.Down {
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
// withdrew any previous one). A commit whose timer fired while a newer
// wave was withdrawing it finds its diff replaced and does nothing.
func (c *Controller) scheduleCommit(s *Session, wave uint64, diff *planner.Diff, delayMS float64) {
	cancel := c.sched.After(delayMS, func() {
		c.waveMu.Lock()
		defer c.waveMu.Unlock()
		s.mu.Lock()
		current := s.pendingDiff == diff && s.tracked
		if current {
			s.pendingCancel, s.pendingDiff = nil, nil
		}
		s.mu.Unlock()
		if !current || c.isStopped() {
			return
		}
		mv, err := c.commit(s, wave, diff, factsOf(diff.New), false)
		if err != nil {
			c.fail(s, wave, err.Error())
			return
		}
		c.reindex([]indexMove{mv})
		c.cutovers.Inc()
	})
	s.mu.Lock()
	s.pendingCancel, s.pendingDiff = cancel, diff
	s.mu.Unlock()
}

func (c *Controller) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// commit moves one session onto diff.New: acquire-before-release in
// the table (deploy-before-teardown at fleet scope), with the staged
// cutover when something must be deployed or the session has a head to
// move. The caller folds the returned footprint change into the
// affected-session index. On error the session is left on its old
// deployment, which is still serving.
func (c *Controller) commit(s *Session, wave uint64, diff *planner.Diff, facts *depFacts, bootstrap bool) (indexMove, error) {
	now := c.sched.NowMS()
	s.mu.Lock()
	old, oldFacts, oldHeld, head := s.dep, s.facts, s.held, s.head
	var bindings []Flippable
	if len(s.bindings) > 0 {
		bindings = append(bindings, s.bindings...)
	}
	s.mu.Unlock()

	var held []string
	if s.Service != "" || len(bindings) > 0 || !c.tab.Covers(diff.New) {
		var err error
		if head, held, err = c.cutover(s, wave, old, bindings, diff); err != nil {
			return indexMove{}, err
		}
	} else {
		held = c.acquire(diff.New)
	}

	s.mu.Lock()
	s.dep, s.facts, s.held, s.head = diff.New, facts, held, head
	if !bootstrap {
		s.lastCutoverMS = now
	}
	s.retries = 0
	s.mu.Unlock()

	// The old deployment's references go last; what no session holds any
	// more drains before teardown: requests already past the flip may
	// still be in flight through it.
	c.release(s, wave, oldHeld)
	kind := "adapted"
	if bootstrap {
		kind = "planned"
	}
	c.emit(s, Event{Wave: wave, Kind: kind, Detail: facts.summary})
	return indexMove{s: s, old: oldFacts, new: facts}, nil
}

// cutover runs the executor's stages for one commit and returns the new
// head address and the instances the session now holds. The invariant
// is deploy-before-teardown: until the new deployment is serving and
// the bindings have flipped, the old one keeps running, so any failure
// here leaves clients exactly where they were. The new deployment's
// references are taken as soon as it is deployed; a failed publish
// releases them again, and what nobody else holds drains away.
func (c *Controller) cutover(s *Session, wave uint64, old *planner.Deployment, bindings []Flippable, diff *planner.Diff) (string, []string, error) {
	c.stage(s, wave, "snapshot")
	var states map[string][]byte
	if len(diff.Install) > 0 {
		states = c.exec.Snapshot(old, diff)
	}
	c.stage(s, wave, "deploy")
	addr, err := c.exec.Deploy(diff, states)
	if err != nil {
		return "", nil, fmt.Errorf("deploy: %v (old deployment still serving)", err)
	}
	held := c.acquire(diff.New)
	if s.Service != "" {
		c.stage(s, wave, "publish")
		if err := c.exec.Publish(s.Service, addr); err != nil {
			c.release(s, wave, held)
			return "", nil, fmt.Errorf("publish: %v (old deployment still serving)", err)
		}
	}
	c.stage(s, wave, "flip")
	for _, b := range bindings {
		b.SetAddr(addr)
	}
	return addr, held, nil
}

func (c *Controller) stage(s *Session, wave uint64, name string) {
	c.emit(s, Event{Wave: wave, Kind: "stage", Detail: name})
}

// acquire takes one reference on every instance dep runs on.
func (c *Controller) acquire(dep *planner.Deployment) []string {
	held, entered := c.tab.Acquire(dep)
	c.deploys.Add(int64(entered))
	return held
}

// release drops a session's references, drains the instances whose
// last reference went with them, and returns how many did.
func (c *Controller) release(s *Session, wave uint64, held []string) int {
	gone := c.tab.Release(held)
	if len(gone) > 0 {
		c.discards.Add(int64(len(gone)))
		c.drain(s, wave, gone)
	}
	return len(gone)
}

// drain tears released instances down after DrainMS, minus any a later
// commit acquired again in the meantime.
func (c *Controller) drain(s *Session, wave uint64, released []string) {
	c.stage(s, wave, "drain")
	c.sched.After(c.cfg.DrainMS, func() {
		c.waveMu.Lock()
		c.discard(c.tab.Finalize(released))
		c.waveMu.Unlock()
		c.stage(s, wave, "teardown")
	})
}

// discard has the executor tear instances down and forgets them.
func (c *Controller) discard(ids []string) {
	if len(ids) > 0 {
		c.exec.Discard(ids)
		c.tab.Remove(ids...)
	}
}

// fail reports a failed replan or cutover and arms the session's retry.
func (c *Controller) fail(s *Session, wave uint64, detail string) {
	c.emit(s, Event{Wave: wave, Kind: "failed", Detail: detail})
	c.scheduleRetry(s)
}

// scheduleRetry arms a one-session wave after a backoff that doubles
// per consecutive failure, up to MaxAdaptRetries; after that the
// session waits for the next network change. Retries carry no
// changed-element set: the failed attempt consumed it, so they take the
// full-replan path.
func (c *Controller) scheduleRetry(s *Session) {
	if c.isStopped() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retryCancel != nil || s.retries >= c.cfg.MaxAdaptRetries {
		return
	}
	delay := c.cfg.RetryBackoffMS * float64(int(1)<<s.retries)
	s.retries++
	s.retryCancel = c.sched.After(delay, func() {
		s.mu.Lock()
		s.retryCancel = nil
		s.mu.Unlock()
		if !c.isStopped() {
			c.runWave([]*Session{s}, false, nil)
		}
	})
}

// indexMove is one committed session's change of footprint, for
// reindex.
type indexMove struct {
	s        *Session
	old, new *depFacts
}

// reindex swaps sessions' entries in the node→sessions index from their
// old deployments' footprints to the new ones (either may be nil).
func (c *Controller) reindex(moves []indexMove) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mv := range moves {
		if mv.old != nil {
			for _, n := range mv.old.footprint {
				if set := c.byNode[n]; set != nil {
					delete(set, mv.s)
					if len(set) == 0 {
						delete(c.byNode, n)
					}
				}
			}
		}
		if mv.new != nil {
			for _, n := range mv.new.footprint {
				set := c.byNode[n]
				if set == nil {
					set = map[*Session]struct{}{}
					c.byNode[n] = set
				}
				set[mv.s] = struct{}{}
			}
		}
	}
}

// factsOf derives the loop's view of a deployment.
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
	parts := make([]string, len(dep.Placements))
	for i, p := range dep.Placements {
		parts[i] = p.Key()
	}
	return strings.Join(parts, " -> ")
}
