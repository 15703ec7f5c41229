package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"partsvc/internal/metrics"
)

// sseFrame is one parsed `id:`/`event:`/`data:` block.
type sseFrame struct {
	id    uint64
	event string
	data  string
}

// readFrame reads the next event frame, skipping comments (heartbeats)
// and retry-only blocks.
func readFrame(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	has := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if has {
				return f, nil
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "retry: "):
		case strings.HasPrefix(line, "id: "):
			f.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
			has = true
		case strings.HasPrefix(line, "event: "):
			f.event = line[len("event: "):]
			has = true
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
			has = true
		}
	}
}

func newTestServer(t *testing.T, cfg Config, ctl Control) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s := New(cfg, ctl)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// openSSE connects to /v1/events and returns a frame reader plus a
// cancel that tears the connection down.
func openSSE(t *testing.T, base, query, lastID string) (*bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/events"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("SSE connect: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return bufio.NewReader(resp.Body), cancel
}

func TestSSEStreamDeliversPublishedEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{}, Control{})
	br, cancel := openSSE(t, ts.URL, "", "")
	defer cancel()

	// Published after the subscription: must arrive live, in order,
	// with the bus seq as the SSE id.
	go func() {
		s.bus.Publish(Event{Source: "adapt", Kind: "suspect", Detail: "node sd-2"})
		s.bus.Publish(Event{Source: "adapt", Kind: "replan", Session: "carol"})
	}()
	f1, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f1.event != "suspect" || f2.event != "replan" {
		t.Fatalf("events = %q, %q; want suspect, replan", f1.event, f2.event)
	}
	if f2.id != f1.id+1 {
		t.Fatalf("ids = %d, %d; want consecutive", f1.id, f2.id)
	}
	var e Event
	if err := json.Unmarshal([]byte(f2.data), &e); err != nil {
		t.Fatalf("data is not Event JSON: %v", err)
	}
	if e.Session != "carol" || e.Seq != f2.id {
		t.Fatalf("decoded event %+v does not match frame id %d", e, f2.id)
	}
}

func TestSSEKindAndSessionFilters(t *testing.T) {
	s, ts := newTestServer(t, Config{}, Control{})
	br, cancel := openSSE(t, ts.URL, "?session=carol&kind=replan,adapted", "")
	defer cancel()

	go func() {
		s.bus.Publish(Event{Kind: "replan", Session: "dave"})   // wrong session
		s.bus.Publish(Event{Kind: "stage", Session: "carol"})   // wrong kind
		s.bus.Publish(Event{Kind: "adapted", Session: "carol"}) // match
	}()
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.event != "adapted" {
		t.Fatalf("first delivered event = %q, want the filtered-to adapted", f.event)
	}
}

// TestSSEReconnectReplay is the Last-Event-ID contract: a client that
// drops and reconnects with its last seen id receives exactly the
// missed events, no duplicates, then continues live.
func TestSSEReconnectReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{}, Control{})

	br, cancel := openSSE(t, ts.URL, "", "")
	s.bus.Publish(Event{Kind: "one"})
	s.bus.Publish(Event{Kind: "two"})
	f1, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f1.event != "one" || f2.event != "two" {
		t.Fatalf("first connection saw %q, %q", f1.event, f2.event)
	}
	cancel() // connection drops

	// Missed while away.
	s.bus.Publish(Event{Kind: "three"})
	s.bus.Publish(Event{Kind: "four"})

	br2, cancel2 := openSSE(t, ts.URL, "", strconv.FormatUint(f2.id, 10))
	defer cancel2()
	f3, err := readFrame(br2)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := readFrame(br2)
	if err != nil {
		t.Fatal(err)
	}
	if f3.event != "three" || f4.event != "four" {
		t.Fatalf("replay gave %q, %q; want three, four", f3.event, f4.event)
	}
	if f3.id != f2.id+1 || f4.id != f3.id+1 {
		t.Fatalf("replay ids %d, %d not contiguous with %d", f3.id, f4.id, f2.id)
	}
	// And live events keep flowing after the replay with no duplicates.
	s.bus.Publish(Event{Kind: "five"})
	f5, err := readFrame(br2)
	if err != nil {
		t.Fatal(err)
	}
	if f5.event != "five" || f5.id != f4.id+1 {
		t.Fatalf("post-replay live event = %+v", f5)
	}
}

// TestSSEShutdownSendsBye: Shutdown publishes a final shutdown event,
// then every subscriber's stream ends with an explicit bye frame —
// clients can tell a planned stop from a network hiccup.
func TestSSEShutdownSendsBye(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Addr: "127.0.0.1:0", Registry: reg}, Control{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	br, cancel := openSSE(t, "http://"+s.Addr(), "", "")
	defer cancel()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	sawShutdown, sawBye := false, false
	for {
		f, err := readFrame(br)
		if err != nil {
			if !sawBye && err != io.EOF {
				t.Fatalf("stream error before bye: %v", err)
			}
			break
		}
		switch f.event {
		case "shutdown":
			sawShutdown = true
		case "bye":
			sawBye = true
		}
		if sawBye {
			break
		}
	}
	if !sawShutdown || !sawBye {
		t.Errorf("stream end: shutdown=%v bye=%v, want both", sawShutdown, sawBye)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after draining SSE subscribers")
	}
}

func TestSSEHeartbeat(t *testing.T) {
	s := New(Config{Registry: metrics.NewRegistry()}, Control{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.streamEvents(w, r, 30*time.Millisecond)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if strings.HasPrefix(line, ": hb") {
			return // keepalive observed with no events published
		}
	}
	t.Fatal("no heartbeat comment within 3s")
}
