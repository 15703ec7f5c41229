package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"partsvc/internal/adapt"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/trace"
)

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// apiError is the uniform error body.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// notConfigured answers for endpoints whose Control dependency is nil.
func notConfigured(w http.ResponseWriter, what string) {
	apiError(w, http.StatusServiceUnavailable, "%s not configured on this server", what)
}

// deploymentJSON is the wire form of a planner.Deployment. CapacityRPS
// can be +Inf (no finite bottleneck), which encoding/json rejects, so
// it rides as a pointer omitted when non-finite.
type deploymentJSON struct {
	Placements        []string `json:"placements"`
	ExpectedLatencyMS float64  `json:"expected_latency_ms"`
	CapacityRPS       *float64 `json:"capacity_rps,omitempty"`
	NewComponents     int      `json:"new_components"`
	Summary           string   `json:"summary"`
}

func depJSON(dep *planner.Deployment) *deploymentJSON {
	if dep == nil {
		return nil
	}
	out := &deploymentJSON{
		ExpectedLatencyMS: dep.ExpectedLatencyMS,
		NewComponents:     dep.NewComponents,
		Summary:           dep.String(),
	}
	for _, p := range dep.Placements {
		out.Placements = append(out.Placements, p.Key())
	}
	if !math.IsInf(dep.CapacityRPS, 0) && !math.IsNaN(dep.CapacityRPS) {
		c := dep.CapacityRPS
		out.CapacityRPS = &c
	}
	return out
}

// planRequest is the body of POST /v1/plan and POST /v1/sessions.
type planRequest struct {
	Name      string  `json:"name,omitempty"`    // sessions only
	Service   string  `json:"service,omitempty"` // lookup name; default "head-"+Name
	Interface string  `json:"interface"`
	Node      string  `json:"node"`
	User      string  `json:"user"`
	RateRPS   float64 `json:"rate_rps"`
	// Objective is "latency" (default), "cost", or "headroom".
	Objective string `json:"objective,omitempty"`
}

// decodeBody strictly decodes a JSON body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// validatePlanReq checks the request against the spec and deployed
// world; returns the planner request.
func (s *Server) validatePlanReq(w http.ResponseWriter, pr planRequest) (planner.Request, bool) {
	if pr.Interface == "" {
		apiError(w, http.StatusBadRequest, "interface is required")
		return planner.Request{}, false
	}
	if s.ctl.Spec != nil {
		if _, ok := s.ctl.Spec.Interface(pr.Interface); !ok {
			apiError(w, http.StatusBadRequest, "unknown interface %q", pr.Interface)
			return planner.Request{}, false
		}
	}
	if pr.Node == "" {
		apiError(w, http.StatusBadRequest, "node is required")
		return planner.Request{}, false
	}
	if s.ctl.Engine != nil {
		if _, ok := s.ctl.Engine.ControlAddrs()[netmodel.NodeID(pr.Node)]; !ok {
			apiError(w, http.StatusBadRequest, "unknown or dead node %q", pr.Node)
			return planner.Request{}, false
		}
	}
	if pr.RateRPS < 0 {
		apiError(w, http.StatusBadRequest, "rate_rps must be >= 0")
		return planner.Request{}, false
	}
	obj, err := planner.ParseObjective(pr.Objective)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return planner.Request{}, false
	}
	return planner.Request{
		Interface:  pr.Interface,
		ClientNode: netmodel.NodeID(pr.Node),
		User:       pr.User,
		RateRPS:    pr.RateRPS,
		Objective:  obj,
	}, true
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w) //nolint:errcheck // scrape abort
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.cfg.Tracer.Spans()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, spans)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d spans retained (total %d recorded)\n",
		len(spans), s.cfg.Tracer.Total())
	fmt.Fprint(w, trace.Tree(spans))
}

func (s *Server) handleSpecGet(w http.ResponseWriter, _ *http.Request) {
	if s.ctl.Spec == nil {
		notConfigured(w, "spec")
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	s.ctl.Spec.EncodeXML(w) //nolint:errcheck // client went away
}

func (s *Server) handleSpecValidate(w http.ResponseWriter, r *http.Request) {
	svc, err := spec.DecodeXML(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if err := svc.Validate(); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"valid": false, "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"valid": true, "service": svc.Name,
		"components": len(svc.Components), "interfaces": len(svc.Interfaces),
	})
}

// handlePlan runs the planner without deploying (a dry run of
// POST /v1/sessions).
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if s.ctl.Server == nil {
		notConfigured(w, "planner")
		return
	}
	var pr planRequest
	if !decodeBody(w, r, &pr) {
		return
	}
	req, ok := s.validatePlanReq(w, pr)
	if !ok {
		return
	}
	dep, err := s.ctl.Server.PlanOnly(req)
	if err != nil {
		apiError(w, http.StatusUnprocessableEntity, "plan: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deployment": depJSON(dep)})
}

// sessionJSON is the wire form of one tracked session.
type sessionJSON struct {
	Name       string          `json:"name"`
	Service    string          `json:"service,omitempty"`
	Shard      int             `json:"shard"`
	HeadAddr   string          `json:"head_addr"`
	Deployment *deploymentJSON `json:"deployment"`
}

func sessJSON(sess *adapt.Session) sessionJSON {
	return sessionJSON{
		Name:       sess.Name,
		Service:    sess.Service,
		Shard:      sess.Shard(),
		HeadAddr:   sess.HeadAddr(),
		Deployment: depJSON(sess.Deployment()),
	}
}

// session returns the loop's session called name, if any.
func (s *Server) session(name string) (*adapt.Session, bool) {
	if s.ctl.Controller == nil {
		return nil, false
	}
	return s.ctl.Controller.Session(name)
}

// handleSessionCreate deploys a chain for the request, publishes the
// head in the lookup namespace, and tracks the session in the
// adaptation loop — the HTTP form of GenericServer.Access plus
// Controller.Track.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.ctl.Server == nil || s.ctl.Lookup == nil || s.ctl.Controller == nil {
		notConfigured(w, "deployment engine")
		return
	}
	var pr planRequest
	if !decodeBody(w, r, &pr) {
		return
	}
	if pr.Name == "" {
		apiError(w, http.StatusBadRequest, "name is required")
		return
	}
	req, ok := s.validatePlanReq(w, pr)
	if !ok {
		return
	}
	service := pr.Service
	if service == "" {
		service = "head-" + pr.Name
	}
	if _, dup := s.session(pr.Name); dup {
		apiError(w, http.StatusConflict, "session %q already exists", pr.Name)
		return
	}

	headAddr, dep, err := s.ctl.Server.Access(req)
	if err != nil {
		apiError(w, http.StatusUnprocessableEntity, "deploy: %v", err)
		return
	}
	if err := s.ctl.Lookup.Register(smock.Entry{Service: service, ServerAddr: headAddr}); err != nil {
		apiError(w, http.StatusInternalServerError, "publish: %v", err)
		return
	}
	sess := adapt.NewSession(pr.Name, service, req, dep, headAddr)
	s.ctl.Controller.Track(sess)
	s.bus.Publish(Event{
		Source: "api", Kind: "deployed", Session: pr.Name, AtMS: nowMS(),
		Detail: dep.String(),
	})
	writeJSON(w, http.StatusCreated, sessJSON(sess))
}

// handleSessionList lists every session the loop tracks, in tracking
// order — those created here and those tracked in-process alike — with
// the loop's shard occupancy and its live instance count.
func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"sessions": []sessionJSON{}}
	if c := s.ctl.Controller; c != nil {
		sessions := c.Sessions()
		out := make([]sessionJSON, len(sessions))
		for i, sess := range sessions {
			out[i] = sessJSON(sess)
		}
		body["sessions"] = out
		body["sessions_per_shard"] = c.SessionsPerShard()
		body["instances"] = c.Instances()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess, ok := s.session(name)
	if !ok {
		apiError(w, http.StatusNotFound, "no session %q", name)
		return
	}
	writeJSON(w, http.StatusOK, sessJSON(sess))
}

// handleSessionDelete untracks the session and withdraws its lookup
// entry. Untracking releases the session's instances: those no other
// session holds, and that the loop deployed, drain and are torn down.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess, ok := s.session(name)
	if !ok {
		apiError(w, http.StatusNotFound, "no session %q", name)
		return
	}
	torn := s.ctl.Controller.Untrack(name)
	if s.ctl.Lookup != nil && sess.Service != "" {
		s.ctl.Lookup.Deregister(sess.Service)
	}
	s.bus.Publish(Event{
		Source: "api", Kind: "teardown", Session: name, AtMS: nowMS(),
		Detail: fmt.Sprintf("instances torn down: %d", torn),
	})
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "instances_torn_down": torn})
}

// handleSessionAdapt forces an immediate adaptation pass (no debounce
// wait) over every tracked session.
func (s *Server) handleSessionAdapt(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.ctl.Controller == nil {
		notConfigured(w, "adaptation controller")
		return
	}
	if _, ok := s.session(name); !ok {
		apiError(w, http.StatusNotFound, "no session %q", name)
		return
	}
	s.bus.Publish(Event{Source: "api", Kind: "adapt-requested", Session: name, AtMS: nowMS()})
	s.ctl.Controller.Kick()
	writeJSON(w, http.StatusAccepted, map[string]any{"adapting": name})
}

// handleNodeKill hard-kills a node through the Control hook — the
// HTTP form of pulling its power. Recovery is the controller's job.
func (s *Server) handleNodeKill(w http.ResponseWriter, r *http.Request) {
	id := netmodel.NodeID(r.PathValue("id"))
	if s.ctl.KillNode == nil {
		notConfigured(w, "node kill hook")
		return
	}
	if s.ctl.Engine != nil {
		if _, ok := s.ctl.Engine.ControlAddrs()[id]; !ok {
			apiError(w, http.StatusNotFound, "unknown or already-dead node %q", id)
			return
		}
	}
	if err := s.ctl.KillNode(id); err != nil {
		apiError(w, http.StatusInternalServerError, "kill %s: %v", id, err)
		return
	}
	s.bus.Publish(Event{
		Source: "api", Kind: "node-killed", AtMS: nowMS(), Detail: string(id),
	})
	writeJSON(w, http.StatusOK, map[string]any{"killed": string(id)})
}

// linkRequest is the body of POST /v1/net/link (fault/repair
// injection via the monitor).
type linkRequest struct {
	A             string  `json:"a"`
	B             string  `json:"b"`
	LatencyMS     float64 `json:"latency_ms"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	Secure        *bool   `json:"secure,omitempty"`
}

func (s *Server) handleNetLink(w http.ResponseWriter, r *http.Request) {
	if s.ctl.Mon == nil {
		notConfigured(w, "network monitor")
		return
	}
	var lr linkRequest
	if !decodeBody(w, r, &lr) {
		return
	}
	if lr.A == "" || lr.B == "" || lr.LatencyMS <= 0 || lr.BandwidthMbps <= 0 {
		apiError(w, http.StatusBadRequest, "a, b, latency_ms > 0 and bandwidth_mbps > 0 are required")
		return
	}
	if err := s.ctl.Mon.ReportLink(netmodel.NodeID(lr.A), netmodel.NodeID(lr.B),
		lr.LatencyMS, lr.BandwidthMbps, lr.Secure); err != nil {
		apiError(w, http.StatusUnprocessableEntity, "report link: %v", err)
		return
	}
	s.bus.Publish(Event{
		Source: "api", Kind: "link-reported", AtMS: nowMS(),
		Detail: fmt.Sprintf("%s~%s latency=%.0fms bw=%.1fMbps", lr.A, lr.B, lr.LatencyMS, lr.BandwidthMbps),
	})
	writeJSON(w, http.StatusOK, map[string]any{"reported": lr.A + "~" + lr.B})
}
