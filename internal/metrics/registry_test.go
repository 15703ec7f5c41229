package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistrySectionsRenderInOrder(t *testing.T) {
	r := NewRegistry()
	r.RegisterSection("transport", func() []KV {
		return []KV{KVf("frames_sent", "%d", 7)}
	})
	r.RegisterSection("planner", func() []KV {
		return []KV{KVf("chains", "%d", 48)}
	})
	r.Counter("wire.pool_hits").Add(3)
	r.Counter("sched.depth").Add(2)
	r.Histogram("rpc.client.send").Observe(2)

	secs := r.Snapshot()
	var names []string
	for _, s := range secs {
		names = append(names, s.Name)
	}
	// Registered sections first (registration order), then owned
	// metrics grouped by prefix, alphabetical.
	want := []string{"transport", "planner", "rpc", "sched", "wire"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("section order = %v, want %v", names, want)
	}

	out := r.Render()
	for _, frag := range []string{"frames_sent", "7", "chains", "48", "pool_hits",
		"client.send.count", "client.send.p99", "depth"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
}

// TestRegistryReplaceAndUnregister: re-registering a section name is
// how a restarted subsystem drops its old snapshot func; the new func
// takes the old one's slot in render order.
func TestRegistryReplaceAndUnregister(t *testing.T) {
	r := NewRegistry()
	r.RegisterSection("s", func() []KV { return []KV{KVf("v", "old")} })
	r.RegisterSection("t", func() []KV { return []KV{KVf("v", "other")} })
	r.RegisterSection("s", func() []KV { return []KV{KVf("v", "new")} })
	got := r.Snapshot()
	if len(got) != 2 || got[0].Name != "s" || got[0].Items[0].Value != "new" {
		t.Fatalf("re-registered section not replaced in its slot: %+v", got)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a.x") != r.Counter("a.x") {
		t.Error("Counter not stable by name")
	}
	if r.Histogram("a.z") != r.Histogram("a.z") {
		t.Error("Histogram not stable by name")
	}
	route := Label{"route", "/x"}
	if r.Histogram("a.z", route) != r.Histogram("a.z", route) || r.Histogram("a.z", route) == r.Histogram("a.z") {
		t.Error("labelled Histogram not stable by name and label set")
	}
	// Undotted names land in "misc".
	r.Counter("plain").Add(1)
	found := false
	for _, s := range r.Snapshot() {
		if s.Name == "misc" {
			found = true
		}
	}
	if !found {
		t.Error("undotted metric did not land in misc section")
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.RegisterSection("transport", func() []KV {
		return []KV{KVf("bytes_sent", "%d", 1024)}
	})
	r.Counter("wire.hits").Add(5)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got map[string]map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if got["transport"]["bytes_sent"] != "1024" {
		t.Errorf("transport.bytes_sent = %q, want 1024", got["transport"]["bytes_sent"])
	}
	if got["wire"]["hits"] != "5" {
		t.Errorf("wire.hits = %q, want 5", got["wire"]["hits"])
	}
}
