package main

import (
	"strings"
)

// requestBreakdown is what the spans of the requests of one kind
// (send or receive) say about where their time went. Every slice holds
// one value per request, in microseconds.
type requestBreakdown struct {
	totalUS  []float64
	hopUS    []float64            // mean over the request's hops of call span − remote serve span
	hops     []float64            // hops the request crossed
	stubUS   []float64            // client span − its first call span: the load generator's own stub
	selfUS   map[string][]float64 // component -> serve-span self time (summed if visited twice)
	flushMS  []float64            // view -> upstream pushUpdates call spans, milliseconds
	requests int
}

// componentOf strips the node from a "Component@node" span name.
func componentOf(names map[string]string, addr string) string {
	c, _, _ := strings.Cut(names[addr], "@")
	return c
}

// breakDown attributes the time of every linked request whose client
// span is named op. spans must already be linked.
func breakDown(spans []span, names map[string]string, op string) requestBreakdown {
	self := selfTimes(spans)
	byRequest := map[int][]int{}
	for i, s := range spans {
		if s.Request >= 0 && s.Request != s.ID {
			byRequest[s.Request] = append(byRequest[s.Request], i)
		}
	}
	serveOf := map[int]int{} // call span ID -> index of the serve span it caused
	for i, s := range spans {
		if s.Kind == kindServe && s.Parent >= 0 && spans[s.Parent].Kind == kindCall {
			serveOf[s.Parent] = i
		}
	}
	out := requestBreakdown{selfUS: map[string][]float64{}}
	for ri, root := range spans {
		if root.Kind != kindClient || root.Name != op {
			continue
		}
		out.requests++
		out.totalUS = append(out.totalUS, float64(root.dur())/1e3)
		out.stubUS = append(out.stubUS, float64(self[ri])/1e3)
		var hopSum float64
		hops := 0
		perComp := map[string]float64{}
		for _, i := range byRequest[root.ID] {
			s := spans[i]
			switch s.Kind {
			case kindCall:
				if si, ok := serveOf[s.ID]; ok {
					hopSum += float64(s.dur()-spans[si].dur()) / 1e3
					hops++
				}
				if s.Method == "pushUpdates" && componentOf(names, s.Name) == "Encryptor" {
					out.flushMS = append(out.flushMS, float64(s.dur())/1e6)
				}
			case kindServe:
				perComp[componentOf(names, s.Name)] += float64(self[i]) / 1e3
			}
		}
		if hops > 0 {
			out.hopUS = append(out.hopUS, hopSum/float64(hops))
		}
		out.hops = append(out.hops, float64(hops))
		for c, v := range perComp {
			out.selfUS[c] = append(out.selfUS[c], v)
		}
	}
	return out
}
