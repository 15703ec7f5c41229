package smock

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
)

// Table is the one record of what runs where: every component instance,
// keyed by instance ID, with an index from each placement key to its
// current instance. The engine installs and tears down through it, the
// adaptation loop counts session references in it, and every planner
// reads its reuse set from it before it plans.
//
// A key names whatever instance currently serves it. When a plan wires
// a key differently, the engine supersedes the current instance with a
// fresh one; the old one keeps serving the sessions that hold it until
// their last release drains it, like any removed placement.
//
// An instance is live — offered for reuse — while a session holds it or
// it is pinned: held outside the loop (a primary, or what an access
// request deployed for a session nobody tracks). Released to zero, it
// drains: hidden from reuse, and torn down at Finalize unless acquired
// again. Evicted, it is dead: hidden at once, torn down when its last
// holder lets go.
type Table struct {
	mu      sync.Mutex
	byID    map[string]*entry
	cur     map[string]*entry // placement key -> current instance
	seq     int
	scratch []*entry // AppendLive's sort buffer
	ids     []string // Acquire's buffer
	held    []string // what Acquire returned last
}

// Instance is one row of the table.
type Instance struct {
	ID    string
	Place planner.Placement
	Addr  string // "" in modeled worlds
	// Refs counts the tracked sessions holding the instance.
	Refs         int
	Pinned, Dead bool
	// Upstreams is the provider instance ID per required interface. It
	// is shared with the table: read-only.
	Upstreams map[string]string
}

type entry struct {
	Instance
	key     string
	secret  []byte // shared with the instance's client
	adopted bool   // installed outside the engine: teardown only forgets it
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byID: map[string]*entry{}, cur: map[string]*entry{}}
}

// mintLocked returns a fresh instance of p, not yet entered.
func (t *Table) mintLocked(p planner.Placement, upstreams map[string]string) *entry {
	t.seq++
	key := p.Key()
	p.Reused = false
	return &entry{Instance: Instance{ID: fmt.Sprintf("%s#%d", key, t.seq), Place: p, Upstreams: upstreams}, key: key}
}

// enterLocked makes e its key's current instance.
func (t *Table) enterLocked(e *entry) {
	t.byID[e.ID] = e
	t.cur[e.key] = e
}

// Adopt records an instance installed outside the engine, pinned.
func (t *Table) Adopt(p planner.Placement, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.mintLocked(p, nil)
	e.Addr, e.Pinned, e.adopted = addr, true, true
	t.enterLocked(e)
}

// resolveLocked appends to ids the current instance of every placement
// of dep, minting the missing ones providers first, wired along dep's
// edges and pinned as pin says.
func (t *Table) resolveLocked(dep *planner.Deployment, pin func(planner.Placement) bool, ids []string) []string {
	ids = append(ids, make([]string, len(dep.Placements))...)
	for i := len(dep.Placements) - 1; i >= 0; i-- {
		p := dep.Placements[i]
		if e := t.cur[p.Key()]; e != nil {
			ids[i] = e.ID
			continue
		}
		ups := map[string]string{}
		for _, ed := range dep.Edges {
			if ed.From == i {
				ups[ed.Iface] = ids[ed.To]
			}
		}
		e := t.mintLocked(p, ups)
		e.Pinned = pin(p)
		t.enterLocked(e)
		ids[i] = e.ID
	}
	return ids
}

// Record enters a deployment realized outside the loop, as an access
// request realizes one: its instances not yet in the table are pinned.
func (t *Table) Record(dep *planner.Deployment) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolveLocked(dep, func(planner.Placement) bool { return true }, nil)
}

// Covers reports whether every placement of dep has a current instance
// wired as dep says — to the current instances of its providers in dep,
// as the engine would wire it — so that acquiring dep needs no deploy.
// An adopted instance keeps its own wiring, and a modeled one (no
// address: nothing was installed) has none to redo.
func (t *Table) Covers(dep *planner.Deployment) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, p := range dep.Placements {
		e := t.cur[p.Key()]
		if e == nil {
			return false
		}
		if e.adopted || e.Addr == "" {
			continue
		}
		wired := 0
		for _, ed := range dep.Edges {
			if ed.From != i {
				continue
			}
			wired++
			if up := t.cur[dep.Placements[ed.To].Key()]; up == nil || e.Upstreams[ed.Iface] != up.ID {
				return false
			}
		}
		if wired > 0 && wired != len(e.Upstreams) {
			return false
		}
	}
	return true
}

// Current reports whether every instance in ids is its key's current
// instance: none was evicted, superseded or torn down.
func (t *Table) Current(ids []string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		e := t.byID[id]
		if e == nil || t.cur[e.key] != e {
			return false
		}
	}
	return true
}

// Wiring returns, for every instance in ids the table lists, its node
// paired with the node of each instance it is wired to.
func (t *Table) Wiring(ids []string) [][2]netmodel.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [][2]netmodel.NodeID
	for _, id := range ids {
		e := t.byID[id]
		if e == nil {
			continue
		}
		for _, up := range e.Upstreams {
			if u := t.byID[up]; u != nil {
				out = append(out, [2]netmodel.NodeID{e.Place.Node, u.Place.Node})
			}
		}
	}
	return out
}

// Acquire adds a session reference to the current instance of every
// placement of dep, and returns their IDs in placement order and how
// many entered the loop's service. A placement without an instance (a
// modeled world installs nothing) gets one, pinned if the plan reused
// it: it was deployed outside the loop. A draining instance is revived,
// and a pinned one the plan did not reuse — the engine or an access
// request just installed it — is taken over by the loop.
//
// A terminal of dep (a placement with no provider in dep) that runs on
// an existing instance forwards into that instance's upstream chain,
// which dep does not list. Acquire holds that chain too: its IDs follow
// the placements' in the returned slice, so Release drops them with
// the rest, and another session's release cannot drain them under the
// anchor. Chain instances are only held: never taken over, pins kept.
//
// The returned slice is shared with every caller that acquired the
// same instances (a wave group's sessions): treat it as read-only.
func (t *Table) Acquire(dep *planner.Deployment) (ids []string, entered int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids = t.resolveLocked(dep, func(p planner.Placement) bool { return p.Reused }, t.ids[:0])
	n := len(t.ids)
	for i := 0; i < n; i++ {
		e := t.byID[t.ids[i]]
		if e.Refs == 0 && (!e.Pinned || !dep.Placements[i].Reused) {
			e.Pinned = false
			entered++
		}
		e.Refs++
		if isTerminal(dep, i) {
			t.ids = t.appendChainLocked(t.ids, n, e)
		}
	}
	slices.Sort(t.ids[n:]) // upstreams is a map: keep its order out of Release's
	for _, id := range t.ids[n:] {
		t.byID[id].Refs++
	}
	if !slices.Equal(t.ids, t.held) {
		t.held = slices.Clone(t.ids)
	}
	return t.held, entered
}

// isTerminal reports whether placement i of dep has no provider in dep.
func isTerminal(dep *planner.Deployment, i int) bool {
	for _, ed := range dep.Edges {
		if ed.From == i {
			return false
		}
	}
	return true
}

// appendChainLocked appends to ids the instances e's upstream wiring
// reaches, transitively, skipping those already in ids[from:].
func (t *Table) appendChainLocked(ids []string, from int, e *entry) []string {
	for _, up := range e.Upstreams {
		u := t.byID[up]
		if u == nil || slices.Contains(ids[from:], up) {
			continue
		}
		ids = t.appendChainLocked(append(ids, up), from, u)
	}
	return ids
}

// Release drops one reference per ID and returns those whose last
// reference went: they drain until Finalize.
func (t *Table) Release(ids []string) (gone []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if e := t.byID[id]; e != nil {
			if e.Refs--; e.Refs == 0 && !e.Pinned {
				gone = append(gone, id)
			}
		}
	}
	return gone
}

// Hold adds n references to every instance in ids, or drops -n when n
// is negative, in one call: what n sessions holding the same instances
// do with n Acquire calls that find each one already held, or with n
// Release calls that leave each one held. Hold mints, revives, takes
// over and drains nothing: the caller keeps a reference on every
// instance in ids.
func (t *Table) Hold(ids []string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if e := t.byID[id]; e != nil {
			e.Refs += n
		}
	}
}

// Finalize ends the drain of released instances: those still without a
// reference leave the index and are returned for teardown — unless a
// live instance (held or pinned) forwards into one through its upstream
// wiring: a pinned client keeps its whole upstream chain serving,
// referenced or not.
func (t *Table) Finalize(released []string) (out []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var serving map[string]bool
	for _, id := range released {
		if e := t.byID[id]; e != nil && e.Refs == 0 && !e.Pinned && !slices.Contains(out, id) {
			if serving == nil {
				serving = t.servingLocked()
			}
			if serving[id] {
				continue
			}
			t.unindexLocked(e)
			out = append(out, id)
		}
	}
	return out
}

// servingLocked returns the instances some live instance (held or
// pinned, not evicted) forwards into, transitively.
func (t *Table) servingLocked() map[string]bool {
	serving := map[string]bool{}
	var walk func(e *entry)
	walk = func(e *entry) {
		for _, up := range e.Upstreams {
			if u := t.byID[up]; u != nil && !serving[up] {
				serving[up] = true
				walk(u)
			}
		}
	}
	for _, e := range t.byID {
		if (e.Refs > 0 || e.Pinned) && !e.Dead {
			walk(e)
		}
	}
	return serving
}

// Evict marks every instance of a key dead — the current one and any
// it superseded that still serve or drain: revalidation decided the
// placement can no longer run where it is, whichever instance runs it.
// The key leaves the index at once, and holders drain its instances as
// they rewire. An instance nothing but a pin holds gets no release:
// Evict returns those for teardown now, sorted.
func (t *Table) Evict(key string) (teardown []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.byID {
		if e.key != key || e.Dead {
			continue
		}
		t.unindexLocked(e)
		if e.Refs == 0 && e.Pinned {
			teardown = append(teardown, e.ID)
			continue
		}
		e.Dead, e.Pinned = true, false
	}
	slices.Sort(teardown)
	return teardown
}

func (t *Table) unindexLocked(e *entry) {
	if t.cur[e.key] == e {
		delete(t.cur, e.key)
	}
}

// Remove forgets torn-down instances.
func (t *Table) Remove(ids ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.removeLocked(id)
	}
}

func (t *Table) removeLocked(id string) *entry {
	e := t.byID[id]
	if e != nil {
		delete(t.byID, id)
		t.unindexLocked(e)
	}
	return e
}

// AppendLive appends the live current instances' placements, sorted by
// key — the reuse set every planner plans against — to dst. An
// instance wired into a dead or torn-down one is not live: no plan may
// anchor on it.
func (t *Table) AppendLive(dst []planner.Placement) []planner.Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.scratch[:0]
	for _, e := range t.cur {
		if (e.Refs > 0 || e.Pinned) && !t.brokenLocked(e) {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, func(a, b *entry) int { return strings.Compare(a.key, b.key) })
	for _, e := range live {
		dst = append(dst, e.Place)
	}
	clear(live)
	t.scratch = live
	return dst
}

// brokenLocked reports whether e forwards, through its upstream wiring,
// into an instance that is dead or gone. Nothing repairs such a chain
// when no session holds it: a pinned client keeps it serving (Finalize).
func (t *Table) brokenLocked(e *entry) bool {
	for _, up := range e.Upstreams {
		if u := t.byID[up]; u == nil || u.Dead || t.brokenLocked(u) {
			return true
		}
	}
	return false
}

// Addr resolves a key to its current instance's address, or else to
// one still running under it (evicted or superseded).
func (t *Table) Addr(key string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.cur[key]
	if e == nil {
		for _, o := range t.byID {
			if o.key == key {
				e = o
				break
			}
		}
	}
	if e == nil {
		return "", false
	}
	return e.Addr, true
}

// NodeServing returns the node of the instance served at addr, unless
// that instance is leaving: finalized for teardown (no reference, not
// pinned, out of the index), so that whatever ends its connections is
// the teardown itself, not its node.
func (t *Table) NodeServing(addr string) (netmodel.NodeID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.byID {
		if e.Addr == addr && (e.Refs > 0 || e.Pinned || t.cur[e.key] == e) {
			return e.Place.Node, true
		}
	}
	return "", false
}

// Instances returns every instance.
func (t *Table) Instances() []Instance {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Instance, 0, len(t.byID))
	for _, e := range t.byID {
		out = append(out, e.Instance)
	}
	return out
}

// OrphanedBy returns the keys (sorted) of current instances whose
// upstream wiring chains through a dead instance: one of a dead
// placement's key (its current one, or one it superseded that still
// serves a chain), or one evicted earlier. An orphan answers, but every
// request it forwards hits a dead provider: a planner must not anchor a
// new chain at it.
func (t *Table) OrphanedBy(dead []planner.Placement) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make(map[string]bool, len(dead))
	for _, p := range dead {
		keys[p.Key()] = true
	}
	gone := map[string]bool{}
	for id, e := range t.byID {
		if e.Dead || keys[e.key] {
			gone[id] = true
		}
	}
	var orphans []string
	for changed := len(gone) > 0; changed; {
		changed = false
		for id, e := range t.byID {
			for _, up := range e.Upstreams {
				if gone[up] && !gone[id] {
					gone[id], changed = true, true
					if t.cur[e.key] == e {
						orphans = append(orphans, e.key)
					}
				}
			}
		}
	}
	slices.Sort(orphans)
	return orphans
}

// Replan plans req against the table's live instances
// (planner.Planner.Replan). Instances that eviction orphans — wired,
// through their upstream chain, into a dead one — leave the reuse set
// first, so an old deployment that holds an orphaned key no longer
// stands and the chain downstream of the break is planned — and
// re-wired — anew; the engine supersedes the orphans the new plan
// keeps, and those it abandons land in Remove. The evictions are
// decided before anything is searched, by the validity test
// revalidation applies, so a recovery searches once.
//
// A diff that keeps the old deployment is an answer only while that
// deployment still passes Verify. When it does not (a severed route, a
// saturated link under an instance it anchors on), nothing replaces it:
// that is an error, not a verdict to keep it.
func (t *Table) Replan(pl *planner.Planner, old *planner.Deployment, req planner.Request) (*planner.Diff, error) {
	pl.Existing = t.AppendLive(pl.Existing[:0])
	pl.DropExistingByKey(t.OrphanedBy(pl.InvalidExisting())...)
	diff, err := pl.Replan(old, req)
	if err != nil {
		return nil, err
	}
	if old != nil && diff.Unchanged() {
		if err := pl.Verify(old, req); err != nil {
			return nil, fmt.Errorf("smock: nothing replaces a deployment that no longer holds: %w", err)
		}
	}
	return diff, nil
}
