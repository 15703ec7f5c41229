package adapt

// RefCounts returns the table's references per placement key, for the
// external tests' refcount invariant: they must equal the sum over the
// tracked sessions' deployments.
func (c *Controller) RefCounts() map[string]int {
	out := map[string]int{}
	for _, inst := range c.tab.Instances() {
		if inst.Refs > 0 {
			out[inst.Place.Key()] += inst.Refs
		}
	}
	return out
}

// Held returns the instance IDs the session holds references on.
func (s *Session) Held() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}
