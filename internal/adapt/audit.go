package adapt

import (
	"fmt"
	"sort"

	"partsvc/internal/smock"
)

// Audit checks the loop's books against the world it manages and
// returns every violated invariant, one sorted line each (nil when all
// hold):
//
//   - every tracked session runs on a deployment that meets the three
//     validity conditions now (Executor.Verify);
//   - every instance a session holds is alive — not evicted, not on a
//     node the monitor reports down — and wired only to instances that
//     are alive;
//   - every instance's reference count is the number of tracked
//     sessions holding it, and every instance a session holds is in the
//     table.
//
// The first two exempt a session the loop still owes a verdict: one
// with a change pending in the debounce window, a deferred commit, a
// reported failure (a retry armed, or waiting for the next change), or
// no deployment yet. Audit waits for a running wave, so it must not be
// called from an event or wave sink. Every violation it finds is added
// to the adapt.audit_violations counter.
func (c *Controller) Audit() []string {
	c.waveMu.Lock()
	defer c.waveMu.Unlock()
	c.mu.Lock()
	sessions := append([]*Session(nil), c.sessions...)
	owed := make(map[*Session]bool, len(sessions))
	for _, s := range sessions {
		_, pending := c.pendingSessions[s]
		owed[s] = pending || c.pendingAll || s.member != nil && s.member.owes(s)
	}
	c.mu.Unlock()

	insts := map[string]smock.Instance{}
	for _, in := range c.tab.Instances() {
		insts[in.ID] = in
	}
	// dead says why a listed instance cannot serve ("" when it can).
	dead := func(in smock.Instance) string {
		if in.Dead {
			return "evicted"
		}
		if n, ok := c.net.Node(in.Place.Node); !ok || n.Down {
			return "on down node " + string(in.Place.Node)
		}
		return ""
	}
	var out []string
	held := map[string]int{}
	for _, s := range sessions {
		s.mu.Lock()
		dep, ids := s.grp.dep, s.grp.held
		owes := owed[s] || dep == nil || s.pendingDiff != nil || s.retries > 0
		s.mu.Unlock()
		for _, id := range ids {
			held[id]++
		}
		if owes {
			continue
		}
		if err := c.exec.Verify(dep, s.Req); err != nil {
			out = append(out, fmt.Sprintf("session %s: %v", s.Name, err))
		}
		for _, id := range ids {
			in, ok := insts[id]
			if !ok {
				continue // the reference check below reports it
			}
			if why := dead(in); why != "" {
				out = append(out, fmt.Sprintf("session %s holds %s, %s", s.Name, id, why))
			}
			for _, up := range in.Upstreams {
				if u, ok := insts[up]; !ok {
					out = append(out, fmt.Sprintf("session %s holds %s, wired to %s, torn down", s.Name, id, up))
				} else if why := dead(u); why != "" {
					out = append(out, fmt.Sprintf("session %s holds %s, wired to %s, %s", s.Name, id, up, why))
				}
			}
		}
	}
	for id, in := range insts {
		if in.Refs != held[id] {
			out = append(out, fmt.Sprintf("instance %s: %d references, %d held by sessions", id, in.Refs, held[id]))
		}
	}
	for id, n := range held {
		if _, ok := insts[id]; !ok {
			out = append(out, fmt.Sprintf("instance %s: held %d times, not in the table", id, n))
		}
	}
	sort.Strings(out)
	c.auditViolations.Add(int64(len(out)))
	return out
}
