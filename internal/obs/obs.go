// Package obs is skygraph's dependency-free observability core: a
// concurrency-safe metrics registry of counters, gauges and cumulative
// histograms that renders the Prometheus text exposition format. It is
// the instrumentation seam of the serving layer (internal/server); no
// external client library is pulled in.
//
// Metrics are registered once (registration panics on invalid names,
// duplicate names, or kind mismatches — all programmer errors at
// start-up) and observed lock-free on the hot path: scalar cells are
// atomic float64 bits, histogram buckets are atomic counters. Observing
// never panics — a counter handed a negative or NaN delta drops it and
// counts the drop on skygraph_obs_rejected_adds_total, which every
// registry carries. Rendering takes a consistent-enough snapshot
// without blocking writers.
//
// Labelled families hand out children on demand:
//
//	reqs := reg.CounterVec("http_requests_total", "Requests served.", "endpoint", "code")
//	reqs.With("/query/skyline", "200").Inc()
//
// Callback metrics (GaugeFunc / CounterFunc and the vec WithFunc
// variants) read their value at render time — the natural fit for
// occupancy numbers another subsystem already maintains (cache sizes,
// shard populations, runtime stats).
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families in registration order (the render
// order, so text output is deterministic).
type Registry struct {
	mu     sync.RWMutex
	fams   []*family
	byName map[string]*family
	// rejected counts Counter.Add calls dropped for a negative or NaN
	// delta, across every counter of the registry.
	rejected atomic.Uint64
}

// NewRegistry returns a registry holding only its own
// skygraph_obs_rejected_adds_total counter.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*family)}
	r.CounterFunc("skygraph_obs_rejected_adds_total",
		"Counter adds dropped because the delta was negative or NaN.",
		func() float64 { return float64(r.rejected.Load()) })
	return r
}

// family is one named metric with its children (one per label-value
// combination; exactly one unlabelled child for plain metrics).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram families only
	reg     *Registry

	mu       sync.RWMutex
	children map[string]*child
}

// child is one concrete series: either a scalar cell (atomic float64
// bits, or a callback) or a histogram.
type child struct {
	fam         *family
	labelValues []string
	bits        atomic.Uint64
	fn          func() float64
	hist        *histogram
}

func (c *child) value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *child) add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (c *child) set(v float64) { c.bits.Store(math.Float64bits(v)) }

// register creates (or fails on) a family. All registration errors are
// programmer errors and panic.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels ...string) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", name))
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		reg:      r,
		children: make(map[string]*child),
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// childKey joins label values into the children map key. \xff never
// appears in valid UTF-8 label text, so the join is unambiguous.
func childKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{fam: f, labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// sortedChildren snapshots the children in deterministic (label value)
// order for rendering.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	out := make([]*child, 0, len(keys))
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, k := range keys {
		if c, ok := f.children[k]; ok {
			out = append(out, c)
		}
	}
	return out
}

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.add(1) }

// Add adds v, which must be non-negative (counters are monotone). A
// negative or NaN v is a bug in the caller's arithmetic, but Add runs
// on request paths, so it is dropped and counted on the registry's
// skygraph_obs_rejected_adds_total instead of panicking.
func (c Counter) Add(v float64) {
	if !(v >= 0) {
		c.c.fam.reg.rejected.Add(1)
		return
	}
	c.c.add(v)
}

// Value returns the current count.
func (c Counter) Value() float64 { return c.c.value() }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) { g.c.set(v) }

// Add adds v (negative to subtract).
func (g Gauge) Add(v float64) { g.c.add(v) }

// Inc adds one.
func (g Gauge) Inc() { g.c.add(1) }

// Dec subtracts one.
func (g Gauge) Dec() { g.c.add(-1) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.c.value() }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values (created on
// first use).
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.child(values)} }

// WithFunc installs a callback child: its value is read at render time.
// The callback must be monotone non-decreasing to honor counter
// semantics.
func (v CounterVec) WithFunc(fn func() float64, values ...string) { v.f.child(values).fn = fn }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v GaugeVec) With(values ...string) Gauge { return Gauge{v.f.child(values)} }

// WithFunc installs a callback child: its value is read at render time.
func (v GaugeVec) WithFunc(fn func() float64, values ...string) { v.f.child(values).fn = fn }

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, KindCounter, nil).child(nil)}
}

// CounterFunc registers a counter whose value is read from fn at render
// time. fn must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, nil).child(nil).fn = fn
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, nil, labels...)}
}

// Gauge registers and returns an unlabelled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(name, help, KindGauge, nil).child(nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, nil).child(nil).fn = fn
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, nil, labels...)}
}

// Histogram registers and returns an unlabelled histogram with the
// given bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	f := r.register(name, help, KindHistogram, checkBuckets(name, buckets))
	return Histogram{f.child(nil).hist}
}

// HistogramVec registers a labelled histogram family with the given
// bucket upper bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, KindHistogram, checkBuckets(name, buckets), labels...)}
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram { return Histogram{v.f.child(values).hist} }

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], 1) {
		// The +Inf bucket is implicit; an explicit one would duplicate it.
		buckets = buckets[:len(buckets)-1]
	}
	return append([]float64(nil), buckets...)
}
