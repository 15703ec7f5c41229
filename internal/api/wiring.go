package api

import "partsvc/internal/adapt"

// Attach wires the adaptation loop's event stream — per-session control
// events plus the loop-wide observe/suspect/wave lifecycle (session "")
// — into the bus. OnWave stays free for report consumers
// (benchmarks). Must be called before Controller.Start.
func (s *Server) Attach(c *adapt.Controller) {
	bus := s.bus
	c.OnEvent(func(e adapt.Event) {
		bus.Publish(Event{
			AtMS: e.AtMS, Source: "adapt", Kind: e.Kind,
			Session: e.Session, Wave: e.Wave, Detail: e.Detail,
		})
	})
}
