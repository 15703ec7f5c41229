package smock

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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
}

type entry struct {
	Instance
	key    string
	secret []byte // shared with the instance's client
	// upstreams is the provider instance ID per required interface.
	upstreams map[string]string
	adopted   bool // installed outside the engine: teardown only forgets it
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
	return &entry{Instance: Instance{ID: fmt.Sprintf("%s#%d", key, t.seq), Place: p}, key: key, upstreams: upstreams}
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

// Covers reports whether every placement of dep has a current instance.
func (t *Table) Covers(dep *planner.Deployment) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range dep.Placements {
		if t.cur[p.Key()] == nil {
			return false
		}
	}
	return true
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
	for _, up := range e.upstreams {
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

// Finalize ends the drain of released instances: those still without a
// reference leave the index and are returned for teardown.
func (t *Table) Finalize(released []string) (out []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range released {
		if e := t.byID[id]; e != nil && e.Refs == 0 && !e.Pinned && !slices.Contains(out, id) {
			t.unindexLocked(e)
			out = append(out, id)
		}
	}
	return out
}

// Evict marks a key's current instance dead: revalidation decided it
// can no longer run where it is. It leaves the index at once, and its
// holders drain it as they rewire. If nothing but a pin holds it, no
// release will come: Evict returns it for teardown now.
func (t *Table) Evict(key string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.cur[key]
	if e == nil {
		return nil
	}
	t.unindexLocked(e)
	if e.Refs == 0 && e.Pinned {
		return []string{e.ID}
	}
	e.Dead, e.Pinned = true, false
	return nil
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
// key — the reuse set every planner plans against — to dst.
func (t *Table) AppendLive(dst []planner.Placement) []planner.Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.scratch[:0]
	for _, e := range t.cur {
		if e.Refs > 0 || e.Pinned {
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
// upstream wiring chains through the current instance of a dead
// placement. An orphan answers, but every request it forwards hits a
// dead provider: a planner must not anchor a new chain at it.
func (t *Table) OrphanedBy(dead []planner.Placement) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	gone := map[string]bool{}
	for _, p := range dead {
		if e := t.cur[p.Key()]; e != nil {
			gone[e.ID] = true
		}
	}
	var orphans []string
	for changed := len(gone) > 0; changed; {
		changed = false
		for id, e := range t.byID {
			for _, up := range e.upstreams {
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

// RepairReplan plans req against the table's live instances
// (planner.RepairReplan; a nil ch is a full replan with the rewire
// check). When eviction orphans live instances, they leave the reuse
// set and the plan is recomputed, so the chain downstream of the break
// is planned — and re-wired — afresh; the engine supersedes the
// orphans the new plan keeps, and those it abandons land in Remove.
func (t *Table) RepairReplan(pl *planner.Planner, old *planner.Deployment, req planner.Request, ch *planner.ChangedSet) (*planner.Diff, error) {
	pl.Existing = t.AppendLive(pl.Existing[:0])
	diff, err := pl.RepairReplan(old, req, ch)
	if err != nil {
		return nil, err
	}
	orphans := t.OrphanedBy(diff.Evicted)
	if len(orphans) == 0 {
		return diff, nil
	}
	pl.DropExistingByKey(orphans...)
	diff2, err := pl.Replan(old, req)
	if err != nil {
		return nil, err
	}
	diff2.Evicted = append(diff.Evicted, diff2.Evicted...)
	return diff2, nil
}
