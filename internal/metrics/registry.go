package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// KV is one rendered metric: a name and an already-formatted value.
// Subsystems with their own stats structs (planner, transport, sim
// scheduler) expose them to the registry as snapshot funcs returning
// []KV, so the registry never needs to know their internals.
type KV struct {
	Name  string
	Value string
}

// KVf formats a metric value with fmt verbs — sugar for snapshot funcs.
func KVf(name, format string, args ...any) KV {
	return KV{Name: name, Value: fmt.Sprintf(format, args...)}
}

// Label is one key=value dimension on a metric series. Labeled series
// under one name form a family — the shape Prometheus exposition
// renders as `name{key="value"}`.
type Label struct {
	Key   string
	Value string
}

// Registry is the process-wide metrics namespace: named counters and
// histograms owned by the registry, plus per-subsystem snapshot
// sections. One Render call (or one HTTP scrape) shows every subsystem
// in one format. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	sections   []namedSection
	counters   map[string]*counterEntry
	histograms map[string]*histEntry
}

type namedSection struct {
	name string
	fn   func() []KV
}

// counterEntry is one counter series: its family name, label set, and
// the counter itself.
type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

// histEntry is one histogram series, keyed like counterEntry.
type histEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*counterEntry{},
		histograms: map[string]*histEntry{},
	}
}

// seriesKey builds the map key for a name + label set. Labels are
// assumed already sorted by key (callers sort once at registration).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns labels sorted by key (copied; the caller's slice
// is never mutated).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DefaultRegistry is the process-wide registry the transports, planner,
// and cmds register into.
var DefaultRegistry = NewRegistry()

// RegisterSection attaches a named snapshot func; re-registering a name
// replaces the func in place (a subsystem restarting keeps its slot).
// Sections render in first-registration order, before owned metrics.
func (r *Registry) RegisterSection(name string, fn func() []KV) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.sections {
		if r.sections[i].name == name {
			r.sections[i].fn = fn
			return
		}
	}
	r.sections = append(r.sections, namedSection{name: name, fn: fn})
}

// Counter returns the named counter, creating it on first use. Names
// are "section.metric" ("wire.pool_hits"); the part before the first
// dot becomes the rendered section.
func (r *Registry) Counter(name string) *Counter {
	return r.CounterL(name)
}

// CounterL returns the counter series for name plus a label set,
// creating it on first use. Series with the same name and different
// labels render as one Prometheus family ("api.requests" with
// route/code labels).
func (r *Registry) CounterL(name string, labels ...Label) *Counter {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.counters[key]
	if e == nil {
		e = &counterEntry{name: name, labels: labels, c: &Counter{}}
		r.counters[key] = e
	}
	return e.c
}

// Histogram returns the histogram series for name plus a label set,
// creating it on first use. The transports record per-RPC-method
// latencies this way ("rpc.client.send"); series with the same name
// and different labels render as one Prometheus family
// ("api.latency_ms" with a route label).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.histograms[key]
	if e == nil {
		e = &histEntry{name: name, labels: labels, h: &Histogram{}}
		r.histograms[key] = e
	}
	return e.h
}

// Section is one named group of rendered metrics.
type Section struct {
	Name  string
	Items []KV
}

// Snapshot renders every section and owned metric: registered sections
// in registration order, then owned counters and histograms grouped by
// name prefix (before the first dot) in alphabetical order.
// Histograms expand to count/mean/p50/p90/p99/max rows.
func (r *Registry) Snapshot() []Section {
	r.mu.Lock()
	sections := make([]namedSection, len(r.sections))
	copy(sections, r.sections)
	owned := map[string][]KV{}
	add := func(name string, labels []Label, kvs ...KV) {
		sec, rest := splitMetricName(name)
		rest = seriesKey(rest, labels)
		for _, kv := range kvs {
			if kv.Name == "" {
				kv.Name = rest
			} else {
				kv.Name = rest + "." + kv.Name
			}
			owned[sec] = append(owned[sec], kv)
		}
	}
	addHist := func(name string, labels []Label, h *Histogram) {
		add(name, labels,
			KVf("count", "%d", h.Count()),
			KVf("mean", "%.3f", h.Mean()),
			KVf("p50", "%.3f", h.Quantile(0.50)),
			KVf("p90", "%.3f", h.Quantile(0.90)),
			KVf("p99", "%.3f", h.Quantile(0.99)),
			KVf("max", "%.3f", h.Max()),
		)
	}
	for _, e := range r.counters {
		add(e.name, e.labels, KVf("", "%d", e.c.Load()))
	}
	for _, e := range r.histograms {
		addHist(e.name, e.labels, e.h)
	}
	r.mu.Unlock()

	out := make([]Section, 0, len(sections)+len(owned))
	for _, s := range sections {
		out = append(out, Section{Name: s.name, Items: s.fn()})
	}
	names := make([]string, 0, len(owned))
	for name := range owned {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		items := owned[name]
		sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
		out = append(out, Section{Name: name, Items: items})
	}
	return out
}

// Render returns the whole registry as one aligned text table — the
// single stats format every cmd prints.
func (r *Registry) Render() string {
	t := NewTable("section", "metric", "value")
	for _, sec := range r.Snapshot() {
		for _, kv := range sec.Items {
			t.AddRow(sec.Name, kv.Name, kv.Value)
		}
	}
	return t.String()
}

// ServeHTTP exposes the registry as expvar-style JSON
// ({"section":{"metric":"value"}}) for scraping; values keep their
// rendered text form.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	out := map[string]map[string]string{}
	for _, sec := range r.Snapshot() {
		m := out[sec.Name]
		if m == nil {
			m = map[string]string{}
			out[sec.Name] = m
		}
		for _, kv := range sec.Items {
			m[kv.Name] = kv.Value
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // scrape errors are the client's problem
}

// splitMetricName splits "section.metric" at the first dot; names with
// no dot land in the "misc" section.
func splitMetricName(name string) (section, metric string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "misc", name
}
