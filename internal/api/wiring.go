package api

import "partsvc/internal/adapt"

// Attach wires the adaptation loop's event stream — per-session control
// events plus the loop-wide observe/suspect/wave lifecycle (session "")
// — into the bus, and also to extra, when non-nil (psfctl keeps its
// stdout stream this way). OnWave stays free for report consumers
// (benchmarks). Must be called before Controller.Start.
func (s *Server) Attach(c *adapt.Controller, extra func(adapt.Event)) {
	bus := s.bus
	c.OnEvent(func(e adapt.Event) {
		bus.Publish(Event{
			AtMS: e.AtMS, Source: "adapt", Kind: e.Kind,
			Session: e.Session, Wave: e.Wave, Detail: e.Detail,
		})
		if extra != nil {
			extra(e)
		}
	})
}
