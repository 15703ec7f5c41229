package adapt

// RefCounts returns the table's references per instance ID and each
// instance's placement key, for the external tests' refcount invariant.
func (c *Controller) RefCounts() (refs map[string]int, keys map[string]string) {
	refs, keys = map[string]int{}, map[string]string{}
	for _, inst := range c.tab.Instances() {
		keys[inst.ID] = inst.Place.Key()
		if inst.Refs > 0 {
			refs[inst.ID] = inst.Refs
		}
	}
	return refs, keys
}

// Held returns the instance IDs the session holds references on.
func (s *Session) Held() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grp.held
}
