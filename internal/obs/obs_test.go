package obs

import (
	"math"
	"strings"
	"testing"
)

// TestWriteTextGolden pins the exact Prometheus text rendering of one
// registry: family order is registration order, children sort by label
// values, histograms emit cumulative buckets plus _sum/_count.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	c.Add(3)
	v := r.CounterVec("pairs_total", "Pair evaluations.", "kind", "outcome")
	v.With("skyline", "evaluated").Add(7)
	v.With("range", "pruned").Inc()
	g := r.Gauge("inflight", "In-flight requests.")
	g.Set(2)
	g.Dec()
	r.GaugeFunc("shard_graphs", "Graphs per shard.", func() float64 { return 42 })
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 0.5, 1})
	h.Observe(0.05)
	h.Observe(0.5) // boundary: lands in le="0.5"
	h.Observe(3)   // past the last bound: +Inf only

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP skygraph_obs_rejected_adds_total Counter adds dropped because the delta was negative or NaN.
# TYPE skygraph_obs_rejected_adds_total counter
skygraph_obs_rejected_adds_total 0
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3
# HELP pairs_total Pair evaluations.
# TYPE pairs_total counter
pairs_total{kind="range",outcome="pruned"} 1
pairs_total{kind="skyline",outcome="evaluated"} 7
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 1
# HELP shard_graphs Graphs per shard.
# TYPE shard_graphs gauge
shard_graphs 42
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 3.55
latency_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("rendered text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("weird", "Help with \\ backslash\nand newline.", "l")
	v.With("a\"b\\c\nd").Set(1)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `# HELP weird Help with \\ backslash\nand newline.`) {
		t.Errorf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, `weird{l="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "x")
	mustPanic("duplicate", func() { r.Gauge("ok_total", "x") })
	mustPanic("bad metric name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label name", func() { r.CounterVec("ok2_total", "x", "bad-label") })
	mustPanic("label arity", func() { r.CounterVec("ok4_total", "x", "a").With("v1", "v2") })
	mustPanic("unsorted buckets", func() { r.Histogram("h1", "x", []float64{1, 1}) })
	mustPanic("empty buckets", func() { r.Histogram("h2", "x", []float64{}) })
}

// TestCounterRejectsBadDelta: Add runs on request paths, so a negative
// or NaN delta is dropped and counted, never a panic.
func TestCounterRejectsBadDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work_total", "x")
	c.Add(2)
	c.Add(-1)
	r.CounterVec("kinds_total", "x", "kind").With("topk").Add(math.NaN())
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %v after a rejected add; want 2", got)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "skygraph_obs_rejected_adds_total 2\n") {
		t.Errorf("rejected adds not counted:\n%s", sb.String())
	}
}

func TestCounterFuncAndVecFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("cb_total", "callback", func() float64 { n++; return n })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "cb_total 42") {
		t.Errorf("callback counter not rendered:\n%s", got)
	}
}
