// Package obs is the repository's deterministic telemetry layer: a
// lock-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms addressable by name plus a small label set), span tracing
// whose identities are derived and whose timestamps are virtual trace
// time, so same-seed runs emit byte-identical span streams, a structured
// event tracer for the benchmark's replay, and HTTP introspection
// endpoints (Prometheus text and expvar-style JSON).
//
// Handles returned by the registry are resolved once at construction time
// (the cold path takes a registration mutex); increments and observations
// on the handles are single atomic adds — zero allocations, no locks — so
// instrumenting the per-descriptor node hot paths costs nanoseconds.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; registry-issued counters are shared by every caller that resolves
// the same name and label set.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter. Zero-allocation, safe for concurrent use.
//
// lint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
//
// lint:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions (connection counts,
// virtual-day progress). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
//
// lint:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
//
// lint:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
//
// lint:hotpath
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
//
// lint:hotpath
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bucket edges in ascending order; one extra overflow bucket catches
// everything above the last bound. Observations are atomic adds against
// pre-sized bucket slots, so the record path neither locks nor allocates.
type Histogram struct {
	bounds []int64 // immutable after construction
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// newHistogram builds a histogram with the given ascending bounds.
func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Zero-allocation, safe for concurrent use.
//
// lint:hotpath
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveDuration records a duration in microseconds, the unit every
// latency histogram in the repository uses.
//
// lint:hotpath
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// LatencyBuckets are the default histogram bounds for durations in
// microseconds: 50µs to 5s.
var LatencyBuckets = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 5000000}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument.
type metric struct {
	name   string
	labels []string // key,value pairs sorted by key
	key    string   // canonical "name{k="v",...}" identity
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry issues and tracks metric handles. Registration (the Counter,
// Gauge and Histogram lookups) takes a mutex; the handles it returns are
// updated lock-free. The zero Registry is not usable — call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry the instrumented layers register
// against and the introspection endpoints serve.
var Default = NewRegistry()

// sortLabels validates and canonicalizes a key/value label list.
func sortLabels(name string, labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q", name, labels))
	}
	if len(labels) == 0 {
		return nil
	}
	out := append([]string(nil), labels...)
	// Insertion sort by key; label sets are tiny.
	for i := 2; i < len(out); i += 2 {
		for j := i; j > 0 && out[j] < out[j-2]; j -= 2 {
			out[j], out[j-2] = out[j-2], out[j]
			out[j+1], out[j-1] = out[j-1], out[j+1]
		}
	}
	return out
}

// metricID renders the canonical identity of a name + sorted label set.
func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(labels[i+1])
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup get-or-creates the registry slot for (name, labels).
func (r *Registry) lookup(name string, kind metricKind, labels []string, build func(m *metric)) *metric {
	sorted := sortLabels(name, labels)
	key := metricID(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s already registered as %s, requested as %s", key, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: sorted, key: key, kind: kind}
	build(m)
	r.metrics[key] = m
	return m
}

// Counter returns the shared counter for name and the key/value label
// pairs, creating it on first use. Resolve once and keep the handle: the
// lookup locks and allocates, the handle's Inc/Add never do.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, labels, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the shared gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, labels, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Histogram returns the shared histogram for name and labels. Bounds apply
// only on first registration (nil means LatencyBuckets); later lookups
// return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []int64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return r.lookup(name, kindHistogram, labels, func(m *metric) { m.hist = newHistogram(bounds) }).hist
}

// C is shorthand for Default.Counter.
func C(name string, labels ...string) *Counter { return Default.Counter(name, labels...) }

// G is shorthand for Default.Gauge.
func G(name string, labels ...string) *Gauge { return Default.Gauge(name, labels...) }

// H is shorthand for Default.Histogram.
func H(name string, bounds []int64, labels ...string) *Histogram {
	return Default.Histogram(name, bounds, labels...)
}

// HistogramSnapshot is a point-in-time histogram reading.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket edges.
	Bounds []int64
	// Counts holds one entry per bound plus a final overflow bucket.
	Counts []int64
	// Sum and Count summarize all observations.
	Sum   int64
	Count int64
}

// Snapshot is a consistent-enough point-in-time view of a registry, with
// canonical `name{k="v"}` keys. Tests read metrics through it; the JSON
// endpoint writes the registry directly (WriteJSON).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the snapshot value of a counter by name and labels
// (zero when absent).
func (s Snapshot) Counter(name string, labels ...string) int64 {
	return s.Counters[metricID(name, sortLabels(name, labels))]
}

// Gauge returns the snapshot value of a gauge (zero when absent).
func (s Snapshot) Gauge(name string, labels ...string) int64 {
	return s.Gauges[metricID(name, sortLabels(name, labels))]
}

// Snapshot reads every registered metric. Individual values are atomic
// reads; the set of metrics is captured under the registration lock.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, m := range r.metrics {
		switch m.kind {
		case kindCounter:
			s.Counters[key] = m.counter.Value()
		case kindGauge:
			s.Gauges[key] = m.gauge.Value()
		case kindHistogram:
			h := m.hist
			hs := HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.sum.Load(),
				Count:  h.n.Load(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[key] = hs
		}
	}
	return s
}

// sortedMetrics returns the registered metrics ordered by (name, key) for
// deterministic output.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key < out[j].key
	})
	return out
}
