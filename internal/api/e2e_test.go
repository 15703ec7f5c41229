package api_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/api"
	"partsvc/internal/casestudy"
	"partsvc/internal/mail"
	"partsvc/internal/metrics"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// apiWorld is the deployed case study wired for the operational API:
// the same world as the adapt e2e tests, but every control action —
// deploy, kill, inspect — goes over HTTP.
type apiWorld struct {
	*casestudy.World
	ctrl *adapt.Controller
	srv  *api.Server
	base string
}

func newAPIWorld(t *testing.T) *apiWorld {
	t.Helper()
	cs, err := casestudy.New(transport.NewInProc(), "Alice", "Bob", "Carol")
	if err != nil {
		t.Fatal(err)
	}
	w := &apiWorld{World: cs, ctrl: cs.Loop(25)}
	w.srv = api.New(api.Config{Addr: "127.0.0.1:0", Registry: metrics.NewRegistry()}, cs.Control(w.ctrl))
	w.srv.Attach(w.ctrl, nil)
	w.ctrl.Start()
	t.Cleanup(w.ctrl.Stop)
	if err := w.srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.srv.Shutdown(ctx) //nolint:errcheck // best-effort test teardown
	})
	w.base = "http://" + w.srv.Addr()
	return w
}

// post sends a JSON body and decodes the JSON reply into out (if any).
func (w *apiWorld) post(t *testing.T, path, body string, want int, out any) {
	t.Helper()
	resp, err := http.Post(w.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s: got %d, want %d (%s)", path, resp.StatusCode, want, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode reply: %v (%s)", path, err, raw)
		}
	}
}

// deploySD warms up the San Diego chain (in-proc, as client traffic
// would) so Seattle anchors onto the sd-2 view.
func (w *apiWorld) deploySD(t *testing.T) {
	t.Helper()
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	addr, _, err := w.GS.Access(req)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := w.Tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	alice := mail.NewClient("Alice", w.Keys, mail.NewRemote(ep))
	if _, err := alice.Send("Bob", "warm up", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPDrivenNodeCrashRecovery is the acceptance path: deploy a
// session over POST /v1/sessions, kill the node under it over
// POST /v1/nodes/{id}/kill mid-traffic, and watch the whole recovery —
// suspicion, replan, staged cutover, adapted — arrive on /v1/events,
// with zero client-visible RPC errors and a lint-clean /metrics at the
// end.
func TestHTTPDrivenNodeCrashRecovery(t *testing.T) {
	w := newAPIWorld(t)
	w.deploySD(t)

	// Watch the stream before acting so nothing is missed.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	sreq, _ := http.NewRequestWithContext(sctx, "GET", w.base+"/v1/events", nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	type frame struct {
		Kind    string `json:"kind"`
		Source  string `json:"source"`
		Session string `json:"session"`
		Detail  string `json:"detail"`
	}
	frames := make(chan frame, 256)
	go func() {
		br := bufio.NewReader(sresp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				close(frames)
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f frame
			if json.Unmarshal([]byte(strings.TrimSpace(line[len("data: "):])), &f) == nil {
				select {
				case frames <- f:
				default:
				}
			}
		}
	}()

	// Deploy Carol's Seattle session entirely over HTTP.
	var created struct {
		HeadAddr   string `json:"head_addr"`
		Deployment struct {
			Summary string `json:"summary"`
		} `json:"deployment"`
	}
	w.post(t, "/v1/sessions",
		`{"name":"carol","interface":"ClientInterface","node":"sea-2","user":"Carol","rate_rps":50}`,
		http.StatusCreated, &created)
	if !strings.Contains(created.Deployment.Summary, "ViewMailServer@sd-2") {
		t.Fatalf("Seattle chain must run through the sd-2 view initially: %s", created.Deployment.Summary)
	}

	// Bind a client through the session's rebind endpoint (in-proc: the
	// API deploys, the client dials what the lookup publishes).
	sess, ok := w.ctrl.Session("carol")
	if !ok {
		t.Fatal("the loop lost track of the session the API just created")
	}
	reb := adapt.NewRebindEndpoint(w.Tr, adapt.LookupResolver(w.Lookup, "head-carol"), adapt.RetryConfig{
		MaxAttempts: 12, BackoffMS: 25,
	})
	sess.Bind(reb)
	carol := mail.NewViewClient("Carol", 2, w.Keys.SubRing(2), mail.NewRemote(reb))
	if _, err := carol.Send("Alice", "before", []byte("pre-crash"), 2); err != nil {
		t.Fatalf("baseline send: %v", err)
	}

	// Kill the node hosting the view Seattle chains through — over HTTP
	// — and keep client traffic flowing the whole time.
	w.post(t, "/v1/nodes/sd-2/kill", "", http.StatusOK, nil)

	sent := 1
	adapted := false
	seen := map[string]bool{}
	var order []string
	deadline := time.Now().Add(15 * time.Second)
	for !adapted || sent < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for adaptation; events seen: %v", order)
		}
		subject := fmt.Sprintf("during-%d", sent)
		if _, err := carol.Send("Alice", subject, []byte(subject), 2); err != nil {
			t.Fatalf("client-visible error during adaptation (send %d): %v", sent, err)
		}
		sent++
	drain:
		for {
			select {
			case f, ok := <-frames:
				if !ok {
					break drain
				}
				if !seen[f.Kind] {
					seen[f.Kind] = true
					order = append(order, f.Kind)
				}
				if f.Kind == "adapted" && f.Session == "carol" {
					adapted = true
				}
			default:
				break drain
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The recovery narrative arrived on the stream in causal order.
	want := []string{"deployed", "node-killed", "suspect", "replan", "stage", "adapted"}
	pos := -1
	for _, k := range want {
		p := indexOf(order, k)
		if p < 0 {
			t.Fatalf("event %q never streamed; saw %v", k, order)
		}
		if p < pos {
			t.Fatalf("event %q out of order; saw %v, want subsequence %v", k, order, want)
		}
		pos = p
	}

	// The adapted deployment avoids the dead node, visible over HTTP.
	var got struct {
		Deployment struct {
			Summary string `json:"summary"`
		} `json:"deployment"`
	}
	resp, err := http.Get(w.base + "/v1/sessions/carol")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.Deployment.Summary, "@sd-2") {
		t.Errorf("adapted deployment still uses the dead node: %s", got.Deployment.Summary)
	}

	// Every send made it: the outage was absorbed, not dropped.
	waitForE2E(t, 2*time.Second, func() bool {
		return w.Primary.Store().InboxCount("Alice") == sent
	}, fmt.Sprintf("primary inbox must hold all %d sends (has %d)",
		sent, w.Primary.Store().InboxCount("Alice")))

	// And the exposition over the same server stays lint-clean.
	mresp, err := http.Get(w.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := metrics.LintPrometheusText(mresp.Body); err != nil {
		t.Errorf("/metrics fails lint after recovery: %v", err)
	}
}

// TestSessionLifecycleOverHTTP: create, list, get, force-adapt, and
// delete a session purely over the management API; teardown leaves the
// shared primary untouched.
func TestSessionLifecycleOverHTTP(t *testing.T) {
	w := newAPIWorld(t)

	w.post(t, "/v1/sessions",
		`{"name":"alice","interface":"ClientInterface","node":"sd-2","user":"Alice","rate_rps":50}`,
		http.StatusCreated, nil)
	// Duplicate names conflict.
	w.post(t, "/v1/sessions",
		`{"name":"alice","interface":"ClientInterface","node":"sd-2","user":"Alice","rate_rps":50}`,
		http.StatusConflict, nil)

	resp, err := http.Get(w.base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []struct {
			Name     string `json:"name"`
			HeadAddr string `json:"head_addr"`
		} `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "alice" || list.Sessions[0].HeadAddr == "" {
		t.Fatalf("session list = %+v", list)
	}

	w.post(t, "/v1/sessions/alice/adapt", "", http.StatusAccepted, nil)
	w.post(t, "/v1/sessions/ghost/adapt", "", http.StatusNotFound, nil)

	var del struct {
		TornDown int `json:"instances_torn_down"`
	}
	req, _ := http.NewRequest("DELETE", w.base+"/v1/sessions/alice", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	if del.TornDown == 0 {
		t.Error("deleting the only session must tear its exclusive instances down")
	}
	// The shared primary survives: a fresh deploy still works.
	w.post(t, "/v1/sessions",
		`{"name":"bob","interface":"ClientInterface","node":"sd-2","user":"Bob","rate_rps":50}`,
		http.StatusCreated, nil)
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func waitForE2E(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}
