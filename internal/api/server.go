package api

import (
	"context"
	"crypto/subtle"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
)

// Config tunes the HTTP layer.
type Config struct {
	// Addr is the listen address for Start ("127.0.0.1:8080"; ":0"
	// picks a free port, readable from Addr()).
	Addr string
	// Token, when non-empty, gates every endpoint except /healthz and
	// /metrics behind `Authorization: Bearer <token>` (scrapers keep
	// unauthenticated access to the exposition; everything operational
	// needs the token).
	Token string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Registry backs /metrics and /v1/metrics.json (default
	// metrics.DefaultRegistry).
	Registry *metrics.Registry
	// SubscriberBuffer is each SSE subscriber's channel depth (default
	// 64). A subscriber further behind than this drops events.
	SubscriberBuffer int
	// HeartbeatMS is the SSE keepalive-comment period (default 15000).
	HeartbeatMS int
	// ShutdownGraceMS bounds Shutdown's drain (default 5000).
	ShutdownGraceMS int
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = metrics.DefaultRegistry
	}
	if c.HeartbeatMS <= 0 {
		c.HeartbeatMS = 15000
	}
	if c.ShutdownGraceMS <= 0 {
		c.ShutdownGraceMS = 5000
	}
	return c
}

// Control is the deployed world the management endpoints drive. Any
// field may be nil; endpoints needing a missing piece answer 503, so
// a metrics-only server (psfctl stats -http) mounts the same mux.
type Control struct {
	// Spec is the service specification (/v1/spec, request validation).
	Spec *spec.Service
	// Server plans and deploys (/v1/plan, /v1/sessions).
	Server *smock.GenericServer
	// Engine realizes deployments and tears instances down.
	Engine *smock.Engine
	// Lookup is the namespace session heads are published in.
	Lookup *smock.Lookup
	// Controller is the adaptation loop: it holds every session
	// (/v1/sessions).
	Controller *adapt.Controller
	// Mon receives fault injections (/v1/net/link).
	Mon *netmon.Monitor
	// KillNode hard-kills a node's wrapper (/v1/nodes/{id}/kill);
	// deployments must observe it exactly as a crash.
	KillNode func(netmodel.NodeID) error
}

// Server mounts the operational API. Construct with New, then either
// Start (own listener + graceful Shutdown) or mount Handler() on an
// existing server.
type Server struct {
	cfg Config
	ctl Control
	bus *Bus
	mux *http.ServeMux

	httpSrv *http.Server

	mu sync.Mutex
	ln net.Listener
}

// New builds a server over a control surface. Attach the loop's event
// stream before traffic.
func New(cfg Config, ctl Control) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		ctl: ctl,
		bus: NewBus(DefaultRingSize),
		mux: http.NewServeMux(),
	}
	s.routes()
	return s
}

// Bus returns the server's event bus (for in-process publishers).
func (s *Server) Bus() *Bus { return s.bus }

// Handler returns the full middleware-wrapped handler (mountable on
// any http.Server).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authorized(r) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// authorized checks the bearer token; /healthz and /metrics stay open.
func (s *Server) authorized(r *http.Request) bool {
	if s.cfg.Token == "" || r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || auth[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.Token)) == 1
}

// observe wraps a handler with per-endpoint latency and status
// instrumentation: api.requests{route,code} counters and an
// api.latency_ms{route} histogram, both in the registry — the API
// measures itself with the same metrics it exposes. A request is
// recorded when its handler starts the response (or returns without
// one), before a byte of it can reach the client: a client that has
// read a response can rely on the next scrape counting it.
func (s *Server) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.cfg.Registry.Histogram("api.latency_ms", metrics.Label{Key: "route", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, record: func(code int) {
			lat.Observe(float64(time.Since(start)) / float64(time.Millisecond))
			s.cfg.Registry.CounterL("api.requests",
				metrics.Label{Key: "route", Value: route},
				metrics.Label{Key: "code", Value: strconv.Itoa(code)}).Inc()
		}}
		h(sw, r)
		sw.started(http.StatusOK)
	}
}

// statusWriter reports the response code to record, once, when the
// response starts: at the first WriteHeader or Write, before either
// reaches the connection. Flush passthrough keeps SSE working through
// the wrapper.
type statusWriter struct {
	http.ResponseWriter
	record func(code int)
	wrote  bool
}

func (w *statusWriter) started(code int) {
	if !w.wrote {
		w.wrote = true
		w.record(code)
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.started(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.started(http.StatusOK)
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Start listens on cfg.Addr and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: a final shutdown event is published, the
// bus closes (every SSE handler returns), and the HTTP server stops
// accepting and waits for in-flight requests up to ShutdownGraceMS.
func (s *Server) Shutdown(ctx context.Context) error {
	s.bus.Publish(Event{Source: "api", Kind: "shutdown", AtMS: nowMS()})
	s.bus.Close()
	if s.httpSrv == nil {
		return nil
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			time.Duration(s.cfg.ShutdownGraceMS)*time.Millisecond)
		defer cancel()
	}
	return s.httpSrv.Shutdown(ctx)
}

// nowMS is the event timestamp clock: wall milliseconds from process
// start (matching the RealScheduler's origin convention).
var processStart = time.Now()

func nowMS() float64 {
	return float64(time.Since(processStart)) / float64(time.Millisecond)
}

// routes mounts every endpoint.
func (s *Server) routes() {
	// Observability.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", s.observe("/metrics", s.handleMetricsProm))
	s.mux.HandleFunc("GET /v1/metrics.json", s.observe("/v1/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		s.cfg.Registry.ServeHTTP(w, r)
	}))
	s.mux.HandleFunc("GET /v1/trace", s.observe("/v1/trace", s.handleTrace))
	s.mux.HandleFunc("GET /v1/events", s.handleEvents) // SSE: long-lived, not latency-observed

	// Management.
	s.mux.HandleFunc("GET /v1/spec", s.observe("/v1/spec", s.handleSpecGet))
	s.mux.HandleFunc("POST /v1/spec/validate", s.observe("/v1/spec/validate", s.handleSpecValidate))
	s.mux.HandleFunc("POST /v1/plan", s.observe("/v1/plan", s.handlePlan))
	s.mux.HandleFunc("POST /v1/sessions", s.observe("/v1/sessions", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.observe("/v1/sessions", s.handleSessionList))
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.observe("/v1/sessions/{name}", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.observe("/v1/sessions/{name}", s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/sessions/{name}/adapt", s.observe("/v1/sessions/{name}/adapt", s.handleSessionAdapt))
	s.mux.HandleFunc("POST /v1/nodes/{id}/kill", s.observe("/v1/nodes/{id}/kill", s.handleNodeKill))
	s.mux.HandleFunc("POST /v1/net/link", s.observe("/v1/net/link", s.handleNetLink))

	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
