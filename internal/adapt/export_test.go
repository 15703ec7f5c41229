package adapt

// RefCounts returns the registry's references per placement key, for
// the external tests' refcount invariant: they must equal the sum over
// the tracked sessions' deployments.
func (c *Controller) RefCounts() map[string]int {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	out := map[string]int{}
	for key, e := range c.reg.entries {
		if e.refs > 0 {
			out[key] = e.refs
		}
	}
	return out
}
