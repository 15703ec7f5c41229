package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"partsvc/internal/metrics"
	"partsvc/internal/planner"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

func doReq(t *testing.T, method, url, token string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTokenAuth(t *testing.T) {
	_, ts := newTestServer(t, Config{Token: "s3cret"}, Control{})

	// Health and the Prometheus exposition stay open for probes and
	// scrapers; everything else needs the bearer token.
	if r := doReq(t, "GET", ts.URL+"/healthz", "", ""); r.StatusCode != 200 {
		t.Errorf("/healthz open: got %d", r.StatusCode)
	}
	if r := doReq(t, "GET", ts.URL+"/metrics", "", ""); r.StatusCode != 200 {
		t.Errorf("/metrics open: got %d", r.StatusCode)
	}
	r := doReq(t, "GET", ts.URL+"/v1/metrics.json", "", "")
	if r.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: got %d, want 401", r.StatusCode)
	}
	if r.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 must carry WWW-Authenticate")
	}
	if r := doReq(t, "GET", ts.URL+"/v1/metrics.json", "wrong", ""); r.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token: got %d, want 401", r.StatusCode)
	}
	if r := doReq(t, "GET", ts.URL+"/v1/metrics.json", "s3cret", ""); r.StatusCode != 200 {
		t.Errorf("good token: got %d, want 200", r.StatusCode)
	}
}

func TestNotConfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{}, Control{})
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/plan", `{"interface":"x","node":"y"}`},
		{"GET", "/v1/spec", ""},
		{"POST", "/v1/sessions", `{"name":"x","interface":"x","node":"y"}`},
		{"POST", "/v1/nodes/ny-1/kill", ""},
		{"POST", "/v1/net/link", `{"a":"x","b":"y","latency_ms":1,"bandwidth_mbps":1}`},
	} {
		if r := doReq(t, c.method, ts.URL+c.path, "", c.body); r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s on empty Control: got %d, want 503", c.method, c.path, r.StatusCode)
		}
	}
}

// planWorld is just enough deployed world to exercise request
// validation: a real spec, planner, and engine with one live node.
func planWorld(t testing.TB) Control {
	t.Helper()
	svc := spec.MailService()
	tr := transport.NewInProc()
	engine := smock.NewEngine(tr)
	wr := smock.NewNodeWrapper(topology.NYServer, tr, smock.NewRegistry(), transport.NewRealClock())
	engine.RegisterWrapper(wr)
	if _, err := wr.ServeControl(); err != nil {
		t.Fatal(err)
	}
	pl := planner.New(svc, topology.CaseStudy())
	return Control{Spec: svc, Server: smock.NewGenericServer(svc, pl, engine), Engine: engine}
}

func TestPlanRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, planWorld(t))
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"iface":"x"}`, 400},
		{"not json", `not json`, 400},
		{"missing interface", `{"node":"ny-1"}`, 400},
		{"unknown interface", `{"interface":"nope","node":"ny-1"}`, 400},
		{"missing node", `{"interface":"ClientInterface"}`, 400},
		{"dead node", `{"interface":"ClientInterface","node":"mars-1"}`, 400},
		{"negative rate", `{"interface":"ClientInterface","node":"ny-1","rate_rps":-1}`, 400},
		{"ok", `{"interface":"ClientInterface","node":"ny-1","user":"Alice","rate_rps":10}`, 200},
	} {
		r := doReq(t, "POST", ts.URL+"/v1/plan", "", c.body)
		if r.StatusCode != c.want {
			b, _ := io.ReadAll(r.Body)
			t.Errorf("%s: got %d, want %d (%s)", c.name, r.StatusCode, c.want, bytes.TrimSpace(b))
		}
	}
}

func TestSpecEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{}, Control{Spec: spec.MailService()})
	r := doReq(t, "GET", ts.URL+"/v1/spec", "", "")
	if r.StatusCode != 200 || !strings.Contains(r.Header.Get("Content-Type"), "xml") {
		t.Fatalf("GET /v1/spec: %d %s", r.StatusCode, r.Header.Get("Content-Type"))
	}
	xml, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The served spec round-trips through its own validator.
	r = doReq(t, "POST", ts.URL+"/v1/spec/validate", "", string(xml))
	if r.StatusCode != 200 {
		t.Fatalf("validate served spec: %d", r.StatusCode)
	}
	var out struct {
		Valid      bool `json:"valid"`
		Components int  `json:"components"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Valid || out.Components == 0 {
		t.Errorf("validate: %+v", out)
	}
	if r := doReq(t, "POST", ts.URL+"/v1/spec/validate", "", "<garbage"); r.StatusCode != 400 {
		t.Errorf("garbage spec: got %d, want 400", r.StatusCode)
	}
}

// TestEndpointMetricsAndExposition: the API measures itself — request
// counters and latency histograms land in the registry and come back
// out of /metrics in lint-clean Prometheus text format.
func TestEndpointMetricsAndExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg}, Control{})

	doReq(t, "GET", ts.URL+"/v1/metrics.json", "", "")
	doReq(t, "GET", ts.URL+"/v1/metrics.json", "", "")
	doReq(t, "POST", ts.URL+"/v1/plan", "", `{}`) // 503: planner not configured

	r := doReq(t, "GET", ts.URL+"/metrics", "", "")
	if r.StatusCode != 200 {
		t.Fatalf("/metrics: %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintPrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`partsvc_api_requests_total{code="200",route="/v1/metrics.json"} 2`,
		`partsvc_api_requests_total{code="503",route="/v1/plan"} 1`,
		`partsvc_api_latency_ms_count{route="/v1/metrics.json"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, Control{})
	r := doReq(t, "GET", ts.URL+"/v1/trace", "", "")
	if r.StatusCode != 200 {
		t.Fatalf("/v1/trace: %d", r.StatusCode)
	}
	b, _ := io.ReadAll(r.Body)
	if !strings.Contains(string(b), "spans retained") {
		t.Errorf("trace text = %q", b)
	}
	r = doReq(t, "GET", ts.URL+"/v1/trace?format=json", "", "")
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("trace json Content-Type = %q", ct)
	}
}

func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{}, Control{})
	if r := doReq(t, "GET", off.URL+"/debug/pprof/", "", ""); r.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: got %d, want 404", r.StatusCode)
	}
	_, on := newTestServer(t, Config{EnablePprof: true}, Control{})
	if r := doReq(t, "GET", on.URL+"/debug/pprof/", "", ""); r.StatusCode != 200 {
		t.Errorf("pprof on: got %d, want 200", r.StatusCode)
	}
}

func TestSessionEndpointsWithoutWorld(t *testing.T) {
	_, ts := newTestServer(t, Config{}, Control{})
	if r := doReq(t, "GET", ts.URL+"/v1/sessions", "", ""); r.StatusCode != 200 {
		t.Errorf("empty session list: %d", r.StatusCode)
	}
	if r := doReq(t, "GET", ts.URL+"/v1/sessions/ghost", "", ""); r.StatusCode != http.StatusNotFound {
		t.Errorf("missing session: got %d, want 404", r.StatusCode)
	}
	if r := doReq(t, "DELETE", ts.URL+"/v1/sessions/ghost", "", ""); r.StatusCode != http.StatusNotFound {
		t.Errorf("delete missing session: got %d, want 404", r.StatusCode)
	}
}

// Compile-time check that the handler stack still satisfies the
// interfaces the SSE path needs when wrapped (Flusher passthrough).
var _ http.Flusher = (*statusWriter)(nil)
