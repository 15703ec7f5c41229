package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"partsvc/internal/metrics"
	"partsvc/internal/netmon"
	"partsvc/internal/topology"
)

// FuzzAPIRequestBody sends arbitrary bodies to the JSON endpoints that
// take outside input — POST /v1/plan and POST /v1/net/link — through
// the real mux over a planner, an engine and a monitor. Whatever the
// body, the server must not panic, and must not answer 5xx except 503
// "not configured".
func FuzzAPIRequestBody(f *testing.F) {
	for _, body := range []string{
		``,
		`{}`,
		`not json`,
		`{"iface":"x"}`,
		`{"interface":"x","node":"y"}`,
		`{"node":"ny-1"}`,
		`{"interface":"nope","node":"ny-1"}`,
		`{"interface":"ClientInterface"}`,
		`{"interface":"ClientInterface","node":"mars-1"}`,
		`{"interface":"ClientInterface","node":"ny-1","rate_rps":-1}`,
		`{"interface":"ClientInterface","node":"ny-1","user":"Alice","rate_rps":10}`,
		`{"interface":"ClientInterface","node":"ny-1","user":"Alice","objective":"headroom"}`,
		`{"a":"x","b":"y","latency_ms":1,"bandwidth_mbps":1}`,
		`{"a":"sd-1","b":"sea-1","latency_ms":1500,"bandwidth_mbps":1}`,
		`{"a":"sd-1","b":"sea-1","latency_ms":20,"bandwidth_mbps":10,"secure":false}`,
	} {
		f.Add([]byte(body))
	}
	ctl := planWorld(f)
	ctl.Mon = netmon.New(topology.CaseStudy())
	h := New(Config{Registry: metrics.NewRegistry()}, ctl).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/plan", "/v1/net/link"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if code := rec.Code; code >= 500 &&
				!(code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "not configured")) {
				t.Fatalf("POST %s %q: %d %s", path, body, code, rec.Body.String())
			}
		}
	})
}
