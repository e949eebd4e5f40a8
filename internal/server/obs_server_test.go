package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/testutil"
)

// traceSums folds a wire trace into the totals the acceptance
// invariants are stated over.
func traceSums(stages []gdb.TraceStage) (pruned, exactPairs, exactPruned int, byName map[string]gdb.TraceStage) {
	byName = make(map[string]gdb.TraceStage, len(stages))
	for _, s := range stages {
		byName[s.Stage] = s
		pruned += s.Pruned
		if s.Stage == "exact" {
			exactPairs, exactPruned = s.Pairs, s.Pruned
		}
	}
	return pruned, exactPairs, exactPruned, byName
}

// requireWireTraceConsistent asserts the HTTP-level acceptance
// invariant: the trace's per-stage pruned counts sum to the reported
// stats.Pruned, and exact-stage pairs minus exact-stage pruned equal
// stats.Evaluated.
func requireWireTraceConsistent(t *testing.T, label string, stages []gdb.TraceStage, stats QueryStats) {
	t.Helper()
	if len(stages) == 0 {
		t.Fatalf("%s: response carries no trace", label)
	}
	pruned, exactPairs, exactPruned, _ := traceSums(stages)
	if pruned != stats.Pruned {
		t.Fatalf("%s: stage pruned sum %d != stats.Pruned %d (trace %+v)", label, pruned, stats.Pruned, stages)
	}
	if exactPairs-exactPruned != stats.Evaluated {
		t.Fatalf("%s: exact pairs %d - pruned %d != stats.Evaluated %d (trace %+v)",
			label, exactPairs, exactPruned, stats.Evaluated, stages)
	}
	for _, s := range stages {
		if s.Pairs < 0 || s.Pruned < 0 || s.DurationMS < 0 {
			t.Fatalf("%s: negative stage counters: %+v", label, s)
		}
	}
}

// TestTraceEndToEnd posts traced queries of every kind and checks the
// returned per-stage pair counts reconcile with the reported stats —
// the acceptance invariant of the tracing layer, asserted through the
// full HTTP path.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, dataset.PaperDB())

	var sky SkylineResponse
	r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), Trace: true}, &sky)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("skyline status = %d", r.StatusCode)
	}
	requireWireTraceConsistent(t, "skyline", sky.Trace, sky.Stats)
	if sky.Stats.Evaluated+sky.Stats.Pruned != 7 {
		t.Fatalf("skyline evaluated %d + pruned %d != 7", sky.Stats.Evaluated, sky.Stats.Pruned)
	}
	if _, _, _, byName := traceSums(sky.Trace); byName["merge"].Stage == "" {
		t.Fatalf("skyline trace has no merge stage: %+v", sky.Trace)
	}

	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3, Trace: true}, &tk)
	requireWireTraceConsistent(t, "topk", tk.Trace, tk.Stats)

	radius := 6.0
	var rng RangeResponse
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius, Trace: true}, &rng)
	requireWireTraceConsistent(t, "range", rng.Trace, rng.Stats)

	// Without "trace": true the field must stay off the wire.
	var quiet SkylineResponse
	resp, err := http.Post(ts.URL+"/query/skyline", "application/json",
		strings.NewReader(`{"graph":`+mustGraphJSON(t)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Fatalf("untraced response leaks a trace field: %s", raw)
	}
	if err := json.Unmarshal(raw, &quiet); err != nil {
		t.Fatal(err)
	}
}

// TestTraceTinyDatabase drives the NoisyFamily collection — 25 close
// relatives — through POST /query/topk. In a database this small every
// candidate sits within a few edits of every other; counting one
// exclusion for two stages once drove the bound stage's count to -2, which panicked the per-stage counter and dropped
// the connection. Every query must answer 200 with a consistent trace,
// and no counter add may have been rejected.
func TestTraceTinyDatabase(t *testing.T) {
	gs, queries := testutil.NoisyFamily(25)
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, gs)

	for qi, q := range queries {
		var tk TopKResponse
		r := postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 5, Measure: "DistEd", Trace: true}, &tk)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("topk q=%d: status %d", qi, r.StatusCode)
		}
		requireWireTraceConsistent(t, fmt.Sprintf("topk q=%d", qi), tk.Trace, tk.Stats)
	}
	if text := scrapeMetrics(t, ts.URL); !strings.Contains(text, "\nskygraph_obs_rejected_adds_total 0\n") {
		t.Fatalf("a counter add was rejected (or the guard family is missing):\n%s", text)
	}
}

// scrapeMetrics returns the /metrics exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func mustGraphJSON(t *testing.T) string {
	t.Helper()
	b, err := json.Marshal(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchTraceConsistent asserts the same invariant for every item of
// a traced batch.
func TestBatchTraceConsistent(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 0}, dataset.PaperDB())
	radius := 6.0
	req := BatchRequest{Queries: []BatchQuery{
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Trace: true}},
		{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), K: 3, Trace: true}},
		{Kind: "range", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius, Trace: true}},
	}}
	var resp BatchResponse
	r := postJSON(t, ts.URL+"/query/batch", req, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", r.StatusCode)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results; want 3", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("item %d failed: %s", i, res.Error)
		}
		var stages []gdb.TraceStage
		var stats QueryStats
		switch {
		case res.Skyline != nil:
			stages, stats = res.Skyline.Trace, res.Skyline.Stats
		case res.TopK != nil:
			stages, stats = res.TopK.Trace, res.TopK.Stats
		case res.Range != nil:
			stages, stats = res.Range.Trace, res.Range.Stats
		}
		requireWireTraceConsistent(t, fmt.Sprintf("batch item %d (%s)", i, res.Kind), stages, stats)
	}
}

// promLine matches one Prometheus text-format sample line. Label
// values may themselves contain braces (route patterns like
// "/graphs/{name}"), so the label block matches greedily to the last
// closing brace before the value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eEIna]+$`)

// TestMetricsEndpoint scrapes /metrics after mixed traffic and checks
// the exposition: parseable sample lines, HELP/TYPE headers for every
// family, and non-zero values on the counters the traffic must have
// moved.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, dataset.PaperDB())

	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &sky)
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &tk)
	// One bad request so an error code shows up per endpoint.
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery()}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q; want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	helped := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !helped[name] && !helped[family] {
			t.Fatalf("sample %q has no preceding HELP/TYPE header", name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	text := string(body)
	for _, want := range []string{
		`skygraph_http_requests_total{endpoint="POST /query/skyline",code="200"}`,
		`skygraph_http_requests_total{endpoint="POST /query/topk",code="400"}`,
		`skygraph_query_pairs_evaluated_total{kind="skyline"}`,
		`skygraph_query_duration_seconds_bucket{kind="skyline",le="+Inf"}`,
		`skygraph_http_request_duration_seconds_bucket{endpoint="POST /query/skyline",le="+Inf"}`,
		`skygraph_stage_seconds_total{stage="exact"}`,
		"skygraph_graphs",
		`skygraph_cache_entries`,
		"go_goroutines",
		"skygraph_uptime_seconds",
		"skygraph_build_info",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q\n%s", want, text)
		}
	}
	// The skyline query evaluated 7 fresh pairs — the kind-counter must
	// say so, not just exist.
	re := regexp.MustCompile(`skygraph_query_pairs_evaluated_total\{kind="skyline"\} (\d+)`)
	m := re.FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		t.Fatalf("skyline pairs-evaluated counter missing or zero (match %v)", m)
	}
}

// TestHealthAndReady checks both probes answer without touching the
// instrumented paths. Ready means the database is loaded: a server over
// a loaded database is ready from its first request, and the answer
// carries the status and the write-path health and nothing else (no
// background index backlog is waited on).
func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServerWith(t, Config{}, dataset.PaperDB())
	want := map[string]map[string]string{
		"/healthz": {"status": "ok"},
		"/readyz":  {"status": "ready", "health": "serving"},
	}
	for path, body := range want {
		var got map[string]string
		if resp := getJSON(t, ts.URL+path, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		if !maps.Equal(got, body) {
			t.Fatalf("%s answered %v, want %v", path, got, body)
		}
	}
	// Probes must not show up in the per-endpoint request counters.
	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "healthz") || strings.Contains(buf.String(), "readyz") {
		t.Fatal("health probes leaked into the request metrics")
	}
}

// TestSlowQueryLog drives a query past a zero-ish threshold and checks
// the log line: one JSON object with kind, duration and a trace that
// satisfies the same consistency invariant as the wire trace.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &sky)

	s.slowMu.Lock()
	logged := buf.String()
	s.slowMu.Unlock()
	lines := strings.Split(strings.TrimSpace(logged), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d slow-log lines; want 1:\n%s", len(lines), logged)
	}
	var rec SlowQueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Kind != "skyline" || rec.DurationMS < 0 || rec.Time == "" {
		t.Fatalf("bad slow-query record: %+v", rec)
	}
	requireWireTraceConsistent(t, "slow-log", rec.Trace, rec.Stats)
	if c := s.met.slowQueries.Value(); c != 1 {
		t.Fatalf("slow-query counter = %v; want 1", c)
	}

	// Below threshold nothing is logged.
	buf.Reset()
	s.cfg.SlowQueryThreshold = time.Hour
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 2}, nil)
	s.slowMu.Lock()
	again := buf.String()
	s.slowMu.Unlock()
	if again != "" {
		t.Fatalf("fast query logged as slow: %s", again)
	}
}

// TestStatsRuntimeBuild checks /stats now reports runtime and build
// sections.
func TestStatsRuntimeBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st StatsResponse
	r := getJSON(t, ts.URL+"/stats", &st)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d", r.StatusCode)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapAllocByte == 0 {
		t.Fatalf("runtime section not populated: %+v", st.Runtime)
	}
	if st.Build.GoVersion == "" || st.Build.Revision == "" {
		t.Fatalf("build section not populated: %+v", st.Build)
	}
}
