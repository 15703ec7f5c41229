package adapt

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
)

// WaveReport summarizes one completed replan wave (emitted after its
// commit phase; deferred commits may still be scheduled).
type WaveReport struct {
	Wave     uint64
	StartMS  float64
	Sessions int
	// PlanComputes is the number of plan keys (request fingerprint and
	// deployment shape): the wave plans each once. MemoHits is the
	// sessions that shared another's computation, Sessions − PlanComputes.
	PlanComputes int
	MemoHits     int
	RouteLookups int
	// Groups is the number of wave groups (request fingerprint and
	// deployment shape) the wave's sessions fell into.
	Groups int
	// TableCalls counts the commit phase's calls into the table of
	// instances (currency and coverage checks, references taken or
	// dropped) and IndexUpdates its groups entering or leaving the node
	// indexes: both follow the groups and outcomes, not the sessions.
	TableCalls   int
	IndexUpdates int
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
// pending-wave groups and arms the wave: at once when a change broke a
// deployment it affects — debouncing a dead session only delays its
// repair — and after the debounce window otherwise.
func (c *Controller) onChanges(changes []netmon.Change) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	broke := false
	for _, ch := range changes {
		affected := c.affectedByLocked(ch)
		for _, g := range affected {
			if !g.pending {
				g.pending = true
				c.pendingGroups = append(c.pendingGroups, g)
			}
			g.pendingSeq = c.joinSeq
		}
		if !broke && !c.waveNow && nodeDown(ch) {
			broke = c.anyBrokenLocked(affected)
		}
	}
	// A wave a breaking change armed goes as armed; any other burst
	// extends the window.
	if !c.waveNow {
		if c.debounceCancel != nil {
			c.debounceCancel()
		}
		delay := c.cfg.DebounceMS
		if broke {
			delay, c.waveNow = 0, true
		}
		c.debounceCancel = c.sched.After(delay, c.debounceExpired)
	}
	c.mu.Unlock()
	if c.onEvent != nil {
		detail := changes[0].String()
		if len(changes) > 1 {
			detail = fmt.Sprintf("%s (+%d more)", detail, len(changes)-1)
		}
		c.emit(nil, Event{Kind: "observe", Detail: detail})
	}
}

// affectedByLocked scopes one change to the groups it can affect.
// Degradations are local: only groups whose deployments touch the
// changed element need replanning (the index tracks every node a
// group's placements and paths traverse; a link's users necessarily
// traverse both endpoints). Improvements — a better link, a recovered
// node, a property change — are optimization opportunities for any
// group whose client can *reach* the changed element, and for no one
// else: a session in a different network partition cannot use it, must
// not be replanned for it, and must not even see the wave in its event
// stream.
func (c *Controller) affectedByLocked(ch netmon.Change) []*group {
	if c.pendingAll {
		return nil
	}
	// scoped: the groups whose footprint holds a, and b unless b is "".
	scoped := func(a, b netmodel.NodeID) []*group {
		var out []*group
		for g := range c.byNode[a] {
			if _, ok := c.byNode[b][g]; ok || b == "" {
				out = append(out, g)
			}
		}
		return out
	}
	// reachable: every group whose client node has a route to the
	// changed element. The monitor applies changes before notifying, so
	// the current route handle already reflects this change; all client
	// lookups share the element's single shortest-path tree.
	reachable := func(node netmodel.NodeID) []*group {
		rc := c.net.Routes()
		var out []*group
		for g := range c.live {
			if _, ok := rc.Path(node, g.req.ClientNode); ok {
				out = append(out, g)
			}
		}
		return out
	}
	switch ch.Kind {
	case "node":
		node := netmodel.NodeID(ch.Subject)
		if nodeDown(ch) {
			out := scoped(node, "")
			for g := range c.byChain[node] {
				out = append(out, g) // chain and footprint are disjoint
			}
			return out
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

// nodeDown reports whether a change takes a node down: the one change
// the monitor reports that can break a deployment. A severed link is
// reported as a latency and bandwidth change, and routing still uses it
// when nothing else connects its ends.
func nodeDown(ch netmon.Change) bool {
	return ch.Kind == "node" && ch.Field == "up" && ch.New != "true"
}

// anyBrokenLocked reports whether a change left one of the groups it
// affects on a broken deployment (depBroken). Each distinct deployment
// is judged once, and the first broken one ends the search.
func (c *Controller) anyBrokenLocked(affected []*group) bool {
	rc := c.net.Routes()
	judged := map[*planner.Deployment]bool{}
	for _, g := range affected {
		if g.dep == nil || judged[g.dep] {
			continue
		}
		judged[g.dep] = true
		if c.depBroken(g.dep, rc) {
			return true
		}
	}
	return false
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

// debounceExpired runs the pending wave over the sessions it is owed
// to, in session order: the pending groups' member lists, each already
// in that order, merged with the sessions that left one.
func (c *Controller) debounceExpired() {
	c.mu.Lock()
	c.debounceCancel, c.waveNow = nil, false
	if c.stopped {
		c.mu.Unlock()
		return
	}
	var affected []*Session
	if c.pendingAll {
		affected = append(affected, c.sessions...)
	} else {
		lists := make([][]*Session, 0, len(c.pendingGroups)+1)
		for _, g := range c.pendingGroups {
			// Members that joined after the change are not owed a wave.
			owed := g.orderedMembersLocked()
			if notOwed := func(s *Session) bool { return !g.owes(s) }; slices.ContainsFunc(owed, notOwed) {
				owed = slices.DeleteFunc(slices.Clone(owed), notOwed)
			}
			lists = append(lists, owed)
		}
		if len(c.pendingSessions) > 0 {
			extra := make([]*Session, 0, len(c.pendingSessions))
			for s := range c.pendingSessions {
				extra = append(extra, s)
			}
			slices.SortFunc(extra, func(a, b *Session) int { return a.idx - b.idx })
			lists = append(lists, extra)
		}
		affected = mergeByIdx(lists)
	}
	for _, g := range c.pendingGroups {
		g.pending = false
	}
	c.pendingGroups = c.pendingGroups[:0]
	c.pendingAll = false
	clear(c.pendingSessions)
	c.mu.Unlock()
	if len(affected) > 0 {
		c.runWave(affected, false)
	}
}

// waveResult is one plan key's outcome in the wave's replan phase:
// every session of the key's groups holds the same diff.
type waveResult struct {
	diff    *planner.Diff
	err     error
	evicted bool // the diff's evictions are applied
}

// runWave executes one replan wave over the affected sessions (in
// tracking order): a parallel replan phase that plans each plan key once,
// striped over the planners in key order, then a sequential commit phase
// in session order, governed by the cutover brake. bootstrap bypasses
// the governor.
func (c *Controller) runWave(affected []*Session, bootstrap bool) WaveReport {
	c.waveMu.Lock()
	defer c.waveMu.Unlock()
	c.mu.Lock()
	c.waveSeq++
	wave := c.waveSeq
	c.mu.Unlock()
	// A session Untrack removed after the wave was scheduled is gone:
	// planning it would deploy instances nothing owns. (tracked and grp
	// change only under waveMu.)
	tracked := affected[:0]
	for _, s := range affected {
		if s.tracked {
			tracked = append(tracked, s)
		}
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
	p := c.newPass()

	// Plan keys: the request fingerprint and the deployment shape, worked
	// out once per group and numbered in the order they first occur. Each
	// key is planned once, from the deployment of its first group.
	type planKey struct{ reqFP, shape string }
	keyOf := map[planKey]int{}
	var firsts []*group
	for _, s := range affected {
		g := s.grp
		if g.pass.seq == p.seq {
			continue
		}
		gp := p.touch(g)
		k := planKey{reqFP: g.reqFP}
		if g.facts != nil {
			k.shape = g.facts.summary
		}
		i, ok := keyOf[k]
		if !ok {
			i = len(firsts)
			keyOf[k] = i
			firsts = append(firsts, g)
		}
		gp.key = i
	}

	// Key i goes to planner i mod n, one goroutine per planner, each
	// planning its keys in order: which planner plans what, and so what
	// each planner keeps between calls, depends on the wave alone. A wave
	// fixes the route epoch and the reuse set, so a key names one
	// computation, and every session of its groups shares the diff.
	results := make([]waveResult, len(firsts))
	n := min(len(c.planners), len(firsts))
	plan := func(j int) {
		for i := j; i < len(firsts); i += n {
			g := firsts[i]
			results[i].diff, results[i].err = c.planners[j].Replan(g.dep, g.req)
		}
	}
	var wg sync.WaitGroup
	for j := 1; j < n; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan(j)
		}()
	}
	plan(0)
	wg.Wait()

	rh1, rm1 := rc.Counters()
	report := WaveReport{
		Wave:         wave,
		StartMS:      startMS,
		Sessions:     len(affected),
		Groups:       len(firsts),
		PlanComputes: len(firsts),
		MemoHits:     len(affected) - len(firsts),
		RouteLookups: int((rh1 + rm1) - (rh0 + rm0)),
		Epoch:        epoch,
	}

	// Commit phase: sequential, session order. What depends only on a
	// group's deployment is judged once per group, and references and
	// the node indexes move per group and outcome (pass).
	lastCommitMS := startMS
	evicted := map[string]bool{}
	var unheld []string
	for _, s := range affected {
		g := s.grp
		r := &results[g.pass.key]
		now := c.sched.NowMS()
		// This wave's verdict supersedes any deferred commit still queued
		// from an earlier wave: that diff was planned against a topology
		// view this wave has already replaced. Its slot is the session's:
		// a commit this wave decides keeps it.
		slotMS, slotted := s.disarm(false)
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
		if !r.evicted {
			r.evicted = true
			for _, ev := range diff.Evicted {
				if key := ev.Key(); !evicted[key] {
					evicted[key] = true
					p.flush()
					unheld = append(unheld, c.tab.Evict(key)...)
					p.indexMoved()
					c.evictions.Inc()
				}
			}
		}
		// A session still holding instances that left the table's index
		// (evicted, or superseded by a fresh instance of the same key)
		// must move onto the current ones, even when its placements did
		// not change.
		stale := p.stale(g)
		if diff.Unchanged() && g.dep != nil && !stale {
			report.Unchanged++
			s.settle()
			p.move(s, g, p.rerouted(g, rc))
			c.emit(s, Event{AtMS: now, Wave: wave, Kind: "unchanged"})
			continue
		}
		if !bootstrap {
			s.mu.Lock()
			lastCut := s.lastCutoverMS
			s.mu.Unlock()
			// Only an optimization may be held back: holds fails for a
			// move off stale instances, a broken deployment or one that
			// no longer serves.
			if c.gov.suppressed(now, lastCut) && p.holds(g) {
				report.Suppressed++
				c.flapsSuppressed.Inc()
				p.move(s, g, p.rerouted(g, rc)) // kept, like an unchanged one
				c.emit(s, Event{AtMS: now, Wave: wave, Kind: "suppressed"})
				continue
			}
		}
		commitAt := now
		switch {
		case bootstrap:
		case slotted:
			commitAt = max(now, slotMS)
		default:
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
		if err := c.commit(p, s, wave, diff, bootstrap); err != nil {
			report.Failed++
			c.fail(s, wave, err.Error())
			continue
		}
		report.Cutovers++
	}
	p.end()
	report.TableCalls, report.IndexUpdates = p.tableCalls, p.indexUpdates
	// No session's release will tear down an evicted instance no session
	// holds, and a cutover may never run for it (its replan can come back
	// unchanged): it goes now.
	c.discard(unheld)
	report.SpanMS = lastCommitMS - startMS

	c.waves.Inc()
	c.waveSessions.Observe(float64(report.Sessions))
	c.waveGroups.Observe(float64(report.Groups))
	c.waveSpanMS.Observe(report.SpanMS)
	c.replansTotal.Add(int64(report.Sessions))
	c.planComputes.Add(int64(report.PlanComputes))
	c.memoHits.Add(int64(report.MemoHits))
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
// placements. A change that breaks one skips the debounce
// (anyBrokenLocked).
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
		// The diff was planned when the wave ran: a change since may have
		// broken what it moves to, and no wave covers the session for a
		// change its old deployment did not touch. A diff that no longer
		// holds is not applied; one that lands on instances that no longer
		// serve is replanned.
		if err := c.exec.Verify(diff.New, s.Req); err != nil {
			c.fail(s, wave, "deferred commit: "+err.Error())
			return
		}
		p := c.newPass()
		err := c.commit(p, s, wave, diff, false)
		serves := err == nil && p.holds(s.grp)
		p.end()
		if err != nil {
			c.fail(s, wave, err.Error())
			return
		}
		c.cutovers.Inc()
		if !serves {
			c.fail(s, wave, "deferred commit: a change since the wave broke what it holds")
		}
	})
	s.mu.Lock()
	s.pendingCancel, s.pendingDiff, s.pendingAtMS = cancel, diff, c.sched.NowMS()+delayMS
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
// move. The pass moves the session's references and its group. On error
// the session is left on its old deployment, which is still serving.
func (c *Controller) commit(p *pass, s *Session, wave uint64, diff *planner.Diff, bootstrap bool) error {
	now := c.sched.NowMS()
	s.mu.Lock()
	from, head := s.grp, s.head
	var bindings []Flippable
	if len(s.bindings) > 0 {
		bindings = append(bindings, s.bindings...)
	}
	s.mu.Unlock()

	var to *group
	if s.Service != "" || len(bindings) > 0 || !p.covers(diff.New) {
		p.flush()
		var held []string
		var err error
		head, held, err = c.cutover(s, wave, from.dep, bindings, diff)
		p.indexMoved()
		p.tableCalls++ // the cutover's acquire
		if err != nil {
			return err
		}
		to = p.land(s.reqFP, s.Req, diff, held)
	} else {
		to = p.acquire(s.reqFP, s.Req, diff)
	}
	s.mu.Lock()
	s.head = head
	if !bootstrap {
		s.lastCutoverMS = now
	}
	s.mu.Unlock()
	p.move(s, from, to)
	s.settle()

	// The old deployment's references go last; what no session holds any
	// more drains before teardown: requests already past the flip may
	// still be in flight through it.
	p.release(s, wave, from)
	kind := "adapted"
	if bootstrap {
		kind = "planned"
	}
	c.emit(s, Event{Wave: wave, Kind: kind, Detail: to.facts.summary})
	return nil
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
// per consecutive failure, up to maxAdaptRetries; after that the
// session waits for the next network change. Retries carry no
// changed-element set: the failed attempt consumed it, so they take the
// full-replan path.
func (c *Controller) scheduleRetry(s *Session) {
	if c.isStopped() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retryCancel != nil || s.retries >= maxAdaptRetries {
		return
	}
	delay := retryBackoffMS * float64(int(1)<<s.retries)
	s.retries++
	s.retryCancel = c.sched.After(delay, func() {
		s.mu.Lock()
		s.retryCancel = nil
		s.mu.Unlock()
		if !c.isStopped() {
			c.runWave([]*Session{s}, false)
		}
	})
}

// factsOf derives the loop's view of a deployment whose instances are
// held (placements first, then an anchor's upstream chain; see
// smock.Table.Acquire), its linkages and the chain's following the
// routes in rc.
func (c *Controller) factsOf(dep *planner.Deployment, held []string, rc *netmodel.RouteCache) *depFacts {
	f := &depFacts{summary: depSummary(dep)}
	for _, p := range dep.Placements {
		f.footprint = appendNew(f.footprint, p.Node)
	}
	for _, e := range dep.Edges {
		path, _ := rc.Path(dep.Placements[e.From].Node, dep.Placements[e.To].Node)
		for _, n := range path.Nodes {
			f.footprint = appendNew(f.footprint, n)
		}
	}
	if len(held) > len(dep.Placements) {
		for _, w := range c.tab.Wiring(held) {
			path, _ := rc.Path(w[0], w[1])
			for _, n := range append(w[:], path.Nodes...) {
				if !slices.Contains(f.footprint, n) {
					f.chain = appendNew(f.chain, n)
				}
			}
		}
	}
	return f
}

func appendNew(nodes []netmodel.NodeID, n netmodel.NodeID) []netmodel.NodeID {
	if slices.Contains(nodes, n) {
		return nodes
	}
	return append(nodes, n)
}

func sameNodes(a, b []netmodel.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, n := range a {
		if !slices.Contains(b, n) {
			return false
		}
	}
	return true
}

// depSummary renders a deployment as its placement chain.
func depSummary(dep *planner.Deployment) string {
	parts := make([]string, len(dep.Placements))
	for i, p := range dep.Placements {
		parts[i] = p.Key()
	}
	return strings.Join(parts, " -> ")
}
