package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/testutil"
)

// TestWireCompat pins the JSON keys and /metrics family names that
// clients outside this module decode — the benchmark harness and
// pkg/client users own their wire structs, so a key renamed or dropped
// here (say, by re-tagging the embedded gdb.Work) would break them
// silently. Responses are decoded as plain maps: the assertion is on
// what is on the wire, not on this package's types. It also pins the
// absence of the keys and families retired with the partitioned store
// and the cross-query score memo, which only ever read constants, and
// of the engine budgets: query stats carry no "inexact" count, and a
// body carrying the "eval" object answers 400.
func TestWireCompat(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
	s, ts := newTestServerWith(t, Config{CacheSize: 16}, gs)
	q := dataset.PaperQuery()
	radius := 6.0

	post := func(path string, body any) map[string]any {
		t.Helper()
		var out map[string]any
		if r := postJSON(t, ts.URL+path, body, &out); r.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, r.StatusCode)
		}
		return out
	}
	batch := post("/query/batch", BatchRequest{Queries: []BatchQuery{
		{Kind: "topk", QueryRequest: QueryRequest{Graph: q, K: 3}},
	}})
	// Warm a stored graph, twice: the first warm builds its table, the
	// repeat finds it cached.
	warm := func() map[string]any {
		t.Helper()
		return post("/cache/warm", WarmRequest{Queries: []QueryRequest{{Graph: gs[len(gs)-1]}}})["results"].([]any)[0].(map[string]any)
	}
	warmed, rewarmed := warm(), warm()
	if warmed["cache_hit"] != false || rewarmed["cache_hit"] != true {
		t.Errorf("warm cache_hit: first %v, repeat %v; want false, true", warmed["cache_hit"], rewarmed["cache_hit"])
	}
	var stats map[string]any
	if r := getJSON(t, ts.URL+"/stats", &stats); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", r.StatusCode)
	}

	queryStats := []string{
		"evaluated", "pruned", "delta_patched", "cache_hit", "duration_ms",
	}
	for _, tc := range []struct {
		name string
		obj  any
		want []string
	}{
		{"skyline stats", post("/query/skyline", QueryRequest{Graph: q})["stats"], queryStats},
		{"topk stats", post("/query/topk", QueryRequest{Graph: q, K: 3})["stats"], queryStats},
		{"range stats", post("/query/range", QueryRequest{Graph: q, Radius: &radius})["stats"], queryStats},
		{"batch item stats", batch["results"].([]any)[0].(map[string]any)["topk"].(map[string]any)["stats"], queryStats},
		{"batch stats", batch["stats"], []string{
			"queries", "errors", "evaluated", "pruned", "delta_patched", "duration_ms",
		}},
		{"warm result", warmed, []string{"evaluated", "cache_hit"}},
		{"/stats requests", stats["requests"], []string{
			"queries", "batches", "inserts", "deletes", "errors", "pair_evals", "pairs_pruned",
			"query_timeouts", "load_shed", "degraded_rejected",
		}},
	} {
		obj, ok := tc.obj.(map[string]any)
		if !ok {
			t.Fatalf("%s: not a JSON object: %v", tc.name, tc.obj)
		}
		got := make([]string, 0, len(obj))
		for k := range obj {
			got = append(got, k)
		}
		want := append([]string(nil), tc.want...)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s keys:\n got  %v\n want %v", tc.name, got, want)
		}
		for _, retired := range []string{"shards", "shard_hits", "memo_hits", "memo_misses", "inexact"} {
			if _, ok := obj[retired]; ok {
				t.Errorf("%s still carries %q", tc.name, retired)
			}
		}
	}
	for _, retired := range []string{"shards", "memo"} {
		if _, ok := stats[retired]; ok {
			t.Errorf("/stats still carries %q", retired)
		}
	}

	for _, path := range []string{"/query/skyline", "/query/topk", "/query/range"} {
		body := `{"graph":` + paperQueryJSON(t) + `,"k":3,"radius":6,"eval":{}}`
		rec := serveBody(s.Handler(), path, body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Class != ClassBadRequest {
			t.Errorf("%s with eval: %d %s (%v); want 400 %s", path, rec.Code, e.Class, err, ClassBadRequest)
		}
	}

	text := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		"skygraph_query_pairs_evaluated_total", "skygraph_query_pairs_pruned_total",
		"skygraph_query_cache_hits_total", "skygraph_query_timeouts_total",
		"skygraph_stage_seconds_total", "skygraph_stage_pairs_total", "skygraph_stage_pruned_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter\n") {
			t.Errorf("/metrics lost the %s family", family)
		}
	}
	// The pivot and vector tiers are gone, and so are their families.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "pivot") || strings.Contains(line, "vector") {
			t.Errorf("/metrics still carries a retired tier family: %s", line)
		}
	}
	for _, prefix := range []string{"skygraph_shard_", "skygraph_query_memo_", "skygraph_memo_"} {
		if strings.Contains(text, prefix) {
			t.Errorf("/metrics still carries a %s* family", prefix)
		}
	}

	// Occupancy is the unlabelled skygraph_graphs and skygraph_generation
	// gauges, beside /stats' db.graphs and generation: after one insert
	// into the seven paper graphs, all four read 8.
	_, paper := newTestServer(t, Config{CacheSize: 16})
	if r := postJSON(t, paper.URL+"/graphs", InsertRequest{Graph: extraGraph("extra")}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	var after map[string]any
	getJSON(t, paper.URL+"/stats", &after)
	if g, n := after["generation"], after["db"].(map[string]any)["graphs"]; g != 8.0 || n != 8.0 {
		t.Errorf("/stats generation %v, db.graphs %v; want 8 and 8", g, n)
	}
	text = scrapeMetrics(t, paper.URL)
	for _, line := range []string{"skygraph_graphs 8", "skygraph_generation 8"} {
		if !strings.Contains(text, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
