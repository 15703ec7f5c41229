package adapt

import (
	"slices"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
)

// A group is the standing form of a wave group: the tracked sessions
// planned with one request that hold one deployment — the same
// instances, seen through the same facts. The loop does per group what
// depends only on the deployment: the node indexes list groups, a
// change marks groups pending, and a commit pass judges, reroutes and
// moves table references once per group and outcome. A session keeps
// only what is its own: bindings, head, governor history and timers.
//
// dep, held, facts and rc never change once the group exists. The
// membership fields are guarded by Controller.mu and change only under
// Controller.waveMu too; the pass scratch belongs to the commit pass
// that stamped it (under waveMu).
type group struct {
	reqFP string
	req   planner.Request
	dep   *planner.Deployment
	// held names the instances dep runs on, in placement order, then an
	// anchor's upstream chain: one table reference per member on each.
	held  []string
	facts *depFacts
	rc    *netmodel.RouteCache // the route handle facts were derived on

	members []*Session // joined in this order; an entry whose member is another group is stale
	n       int        // live members
	sorted  bool       // members is in session order
	indexed bool       // listed in the node indexes and the live set
	// pending marks a change the next wave owes the members that joined
	// before it (Session.joinSeq < pendingSeq).
	pending    bool
	pendingSeq uint64

	pass groupPass
}

// groupPass is a group's scratch within one commit pass.
type groupPass struct {
	seq          uint64 // the pass that owns the scratch
	joined, left int    // members gained and lost so far
	delta        int    // table references owed, not yet taken or dropped
	key          int    // the wave's plan key (runWave)
	// Memos of the pass: staleAt is the table epoch (+1) stale was
	// judged at, 0 before.
	staleAt, stale  int
	verified, valid bool
	reroute         *group
}

// remaining is the group's member count as the pass stands.
func (g *group) remaining() int { return g.n + g.pass.joined - g.pass.left }

// owes reports whether a change is pending for s as a member of g.
func (g *group) owes(s *Session) bool { return g.pending && s.joinSeq < g.pendingSeq }

// compactLocked drops the members that left from the member list.
func (g *group) compactLocked() {
	live := g.members[:0]
	for _, s := range g.members {
		if s.member == g {
			live = append(live, s)
		}
	}
	clear(g.members[len(live):])
	g.members = live
}

// orderedMembersLocked returns the group's live members in session
// order, compacting and sorting the list in place when needed.
func (g *group) orderedMembersLocked() []*Session {
	if len(g.members) != g.n {
		g.compactLocked()
	}
	if !g.sorted {
		slices.SortFunc(g.members, func(a, b *Session) int { return a.idx - b.idx })
		g.sorted = true
	}
	return g.members
}

// nodeIndex maps a node to the groups whose deployments it affects.
type nodeIndex map[netmodel.NodeID]map[*group]struct{}

func (x nodeIndex) add(g *group, nodes []netmodel.NodeID) {
	for _, n := range nodes {
		set := x[n]
		if set == nil {
			set = map[*group]struct{}{}
			x[n] = set
		}
		set[g] = struct{}{}
	}
}

func (x nodeIndex) remove(g *group, nodes []netmodel.NodeID) {
	for _, n := range nodes {
		if set := x[n]; set != nil {
			delete(set, g)
			if len(set) == 0 {
				delete(x, n)
			}
		}
	}
}

// move is one session's change of group in a pass.
type move struct {
	s        *Session
	from, to *group
}

// pass is one run of the loop that moves sessions and their table
// references: a wave's commit phase, a deferred commit, Track or
// Untrack. Sessions move one by one, in session order, but a reference
// that cannot be a group's first or last is only counted: the table
// takes or drops a group's counted references in one call, before
// anything that reads reference counts (an eviction, a cutover, a
// group's first acquire or last release) and when the pass ends.
// Membership and the node indexes change once, in end.
//
// This is exact because a table reference count is the number of
// sessions holding the instance, so it is the sum of its groups'
// member counts: while a group keeps a member, none of its instances
// can reach zero, and a later member of a group acquires the very
// instances its first one did — unless the table's index moved in
// between, which only an eviction or a deploy does (epoch).
type pass struct {
	c     *Controller
	seq   uint64
	epoch int
	// landed is where a diff's sessions went, and at which epoch;
	// covered the epoch (+1) a deployment was found covered at.
	landed  map[*planner.Diff]landing
	covered map[*planner.Deployment]int
	touched []*group
	dirty   []*group // groups with references owed
	moves   []move
	// tableCalls counts the pass's calls into the table, indexUpdates
	// the groups end entered into or took out of the node indexes.
	tableCalls, indexUpdates int
}

type landing struct {
	g     *group
	epoch int
}

// newPass opens a pass; the caller holds waveMu.
func (c *Controller) newPass() *pass {
	c.passSeq++
	return &pass{c: c, seq: c.passSeq}
}

// touch readies g's scratch for the pass.
func (p *pass) touch(g *group) *groupPass {
	if g.pass.seq != p.seq {
		g.pass = groupPass{seq: p.seq}
		p.touched = append(p.touched, g)
	}
	return &g.pass
}

// indexMoved records that the table's index may have changed: an
// eviction or a deploy. What the pass memoized about it is void.
func (p *pass) indexMoved() { p.epoch++ }

// flush has the table take or drop every reference the pass owes.
func (p *pass) flush() {
	for _, g := range p.dirty {
		if d := g.pass.delta; d != 0 {
			g.pass.delta = 0
			p.tableCalls++
			// A group that still has a member keeps every instance it
			// holds referenced: no instance drains here.
			p.c.tab.Hold(g.held, d)
		}
	}
	p.dirty = p.dirty[:0]
}

func (p *pass) owe(g *group, d int) {
	gp := p.touch(g)
	if gp.delta == 0 {
		p.dirty = append(p.dirty, g)
	}
	gp.delta += d
}

// stale reports whether g holds instances that left the table's index
// (evicted, or superseded by a fresh instance of the same key): its
// sessions must move onto the current ones.
func (p *pass) stale(g *group) bool {
	if g.dep == nil {
		return false
	}
	gp := p.touch(g)
	if gp.staleAt != p.epoch+1 {
		gp.staleAt, gp.stale = p.epoch+1, 0
		p.tableCalls++
		if !p.c.tab.Current(g.held[:min(len(g.held), len(g.dep.Placements))]) {
			gp.stale = 1
		}
	}
	return gp.stale == 1
}

// holds reports whether what g holds still serves, judged once per
// pass: its deployment meets the validity conditions (Executor.Verify),
// and every instance it holds, an anchor's upstream chain included, is
// its key's current one on a live node.
func (p *pass) holds(g *group) bool {
	gp := p.touch(g)
	if !gp.verified {
		gp.verified = true
		p.tableCalls++
		gp.valid = p.c.exec.Verify(g.dep, g.req) == nil && p.c.tab.Current(g.held) && p.c.chainServes(g)
	}
	return gp.valid
}

// chainServes reports whether every node the upstream chain of g's
// anchor runs on or routes through is up.
func (c *Controller) chainServes(g *group) bool {
	for _, n := range g.facts.chain {
		if node, ok := c.net.Node(n); !ok || node.Down {
			return false
		}
	}
	return true
}

// rerouted returns the group g's kept sessions move to: g itself while
// its linkages follow the routes they were indexed on, otherwise the
// group of the same holding with the footprint of the current routes.
func (p *pass) rerouted(g *group, rc *netmodel.RouteCache) *group {
	gp := p.touch(g)
	if gp.reroute == nil {
		gp.reroute = g
		if f := p.c.factsOf(g.dep, g.held, rc); !sameFacts(f, g.facts) {
			gp.reroute = p.c.groupFor(g.reqFP, g.req, g.dep, g.held, rc, f)
		}
	}
	return gp.reroute
}

// covers reports whether the table covers dep (Table.Covers): a yes
// holds until the index moves.
func (p *pass) covers(dep *planner.Deployment) bool {
	if p.covered[dep] == p.epoch+1 {
		return true
	}
	p.tableCalls++
	if !p.c.tab.Covers(dep) {
		return false
	}
	if p.covered == nil {
		p.covered = map[*planner.Deployment]int{}
	}
	p.covered[dep] = p.epoch + 1
	return true
}

// acquire moves one session's references onto diff.New and returns the
// group it lands in. The first session of a diff acquires in the table;
// later ones only count a reference while the landing stands.
func (p *pass) acquire(reqFP string, req planner.Request, diff *planner.Diff) *group {
	if l, ok := p.landed[diff]; ok && l.epoch == p.epoch && l.g.remaining() > 0 {
		p.owe(l.g, 1)
		return l.g
	}
	p.flush()
	p.tableCalls++
	held := p.c.acquire(diff.New)
	return p.land(reqFP, req, diff, held)
}

// land records where diff's sessions holding held go.
func (p *pass) land(reqFP string, req planner.Request, diff *planner.Diff, held []string) *group {
	g := p.c.groupFor(reqFP, req, diff.New, held, p.c.net.Routes(), nil)
	if p.landed == nil {
		p.landed = map[*planner.Diff]landing{}
	}
	p.landed[diff] = landing{g, p.epoch}
	return g
}

// release drops s's references on g's instances. Only the group's last
// member releases in the table, and the instances whose last reference
// went with it drain under s.
func (p *pass) release(s *Session, wave uint64, g *group) {
	if len(g.held) == 0 {
		return
	}
	if g.remaining() > 0 {
		p.owe(g, -1)
		return
	}
	p.flush()
	p.tableCalls++
	p.c.release(s, wave, g.held)
}

// move records that s left from for to (either may be nil). s answers
// for to at once; membership follows in end.
func (p *pass) move(s *Session, from, to *group) {
	if from == to {
		return
	}
	if from != nil {
		p.touch(from).left++
	}
	if to != nil { // an untracked session keeps answering for its last
		p.touch(to).joined++
		s.mu.Lock()
		s.grp = to
		s.mu.Unlock()
	}
	p.moves = append(p.moves, move{s, from, to})
}

// end flushes what the pass owes the table and applies its moves.
func (p *pass) end() {
	p.flush()
	if len(p.moves) == 0 {
		return
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mv := range p.moves {
		s := mv.s
		if g := mv.from; g != nil {
			g.n--
			if g.owes(s) {
				c.pendingSessions[s] = struct{}{}
			}
		}
		s.member = mv.to
		if g := mv.to; g != nil {
			g.n++
			s.joinSeq = c.joinSeq
			c.joinSeq++
			if k := len(g.members); k > 0 && g.members[k-1].idx > s.idx {
				g.sorted = false
			}
			g.members = append(g.members, s)
		}
	}
	for _, g := range p.touched {
		if len(g.members) > 2*g.n+8 {
			g.compactLocked()
		}
		switch {
		case g.n > 0 && !g.indexed:
			g.indexed = true
			c.live[g] = struct{}{}
			if g.facts != nil {
				c.byNode.add(g, g.facts.footprint)
				c.byChain.add(g, g.facts.chain)
				p.indexUpdates++
			}
		case g.n == 0 && g.indexed:
			g.indexed = false
			delete(c.live, g)
			if g.facts != nil {
				c.byNode.remove(g, g.facts.footprint)
				c.byChain.remove(g, g.facts.chain)
				p.indexUpdates++
			}
			c.forgetGroup(g)
		case g.n == 0:
			c.forgetGroup(g)
		}
	}
}

// groupFor returns the group of the sessions planned with reqFP that
// hold held on dep, whose facts follow the routes in rc: an existing one
// if its facts are rc's (or equal to f, the facts when the caller has
// them), else a new one.
func (c *Controller) groupFor(reqFP string, req planner.Request, dep *planner.Deployment, held []string, rc *netmodel.RouteCache, f *depFacts) *group {
	cands := c.groups[dep]
	holding := func(g *group) bool { return g.reqFP == reqFP && slices.Equal(g.held, held) }
	if f == nil {
		for _, g := range cands {
			if holding(g) && g.rc == rc {
				return g
			}
		}
		if dep != nil {
			f = c.factsOf(dep, held, rc)
		}
	}
	for _, g := range cands {
		if holding(g) && sameFacts(g.facts, f) {
			return g
		}
	}
	g := &group{reqFP: reqFP, req: req, dep: dep, held: held, facts: f, rc: rc, sorted: true}
	c.groups[dep] = append(cands, g)
	return g
}

// forgetGroup drops an empty group from the lookup.
func (c *Controller) forgetGroup(g *group) {
	cands := c.groups[g.dep]
	if i := slices.Index(cands, g); i >= 0 {
		cands = slices.Delete(cands, i, i+1)
		if len(cands) == 0 {
			delete(c.groups, g.dep)
		} else {
			c.groups[g.dep] = cands
		}
	}
}

// sameFacts reports whether two facts of one deployment index alike.
func sameFacts(a, b *depFacts) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameNodes(a.footprint, b.footprint) && sameNodes(a.chain, b.chain)
}

// mergeByIdx merges lists, each in session order, into a new one
// without repeats.
func mergeByIdx(lists [][]*Session) []*Session {
	if len(lists) == 1 {
		return slices.Clone(lists[0])
	}
	for len(lists) > 1 {
		next := make([][]*Session, 0, (len(lists)+1)/2)
		for i := 0; i+1 < len(lists); i += 2 {
			a, b := lists[i], lists[i+1]
			out := make([]*Session, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				switch {
				case a[0].idx < b[0].idx:
					out, a = append(out, a[0]), a[1:]
				case b[0].idx < a[0].idx:
					out, b = append(out, b[0]), b[1:]
				default:
					out, a, b = append(out, a[0]), a[1:], b[1:]
				}
			}
			next = append(next, append(append(out, a...), b...))
		}
		if len(lists)%2 == 1 {
			next = append(next, lists[len(lists)-1])
		}
		lists = next
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}
