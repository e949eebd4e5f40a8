package server

import (
	"net/http"
	"sort"
	"strings"
	"testing"

	"skygraph/internal/dataset"
)

// TestWireCompat pins the JSON keys and /metrics family names that
// clients outside this module decode — the benchmark harness and
// pkg/client users own their wire structs, so a key renamed or dropped
// here (say, by re-tagging the embedded gdb.Work) would break them
// silently. Responses are decoded as plain maps: the assertion is on
// what is on the wire, not on this package's types.
func TestWireCompat(t *testing.T) {
	_, ts := newVectorTestServer(t, 2, Config{CacheSize: 16}, vectorTestGraphs())
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
	var stats map[string]any
	if r := getJSON(t, ts.URL+"/stats", &stats); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", r.StatusCode)
	}

	queryStats := []string{
		"evaluated", "pruned", "inexact", "pivot_pruned", "pivot_dists", "memo_hits", "memo_misses",
		"vector_cells_probed", "vector_skipped", "vector_fallbacks", "delta_patched",
		"cache_hit", "shards", "shard_hits", "duration_ms",
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
			"queries", "errors", "evaluated", "pruned", "pivot_pruned", "pivot_dists", "memo_hits", "memo_misses",
			"vector_cells_probed", "vector_skipped", "vector_fallbacks", "delta_patched", "shard_hits", "duration_ms",
		}},
		{"/stats requests", stats["requests"], []string{
			"queries", "batches", "inserts", "deletes", "errors", "pair_evals", "pairs_pruned",
			"pivot_pruned", "pivot_dists", "memo_hits", "memo_misses",
			"vector_cells_probed", "vector_skipped", "vector_fallbacks",
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
	}

	text := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		"skygraph_query_pairs_evaluated_total", "skygraph_query_pairs_pruned_total",
		"skygraph_query_pivot_pruned_total", "skygraph_query_memo_hits_total",
		"skygraph_query_memo_misses_total", "skygraph_query_vector_skipped_total",
		"skygraph_query_cache_hits_total", "skygraph_query_timeouts_total",
		"skygraph_vector_cells_probed_total", "skygraph_vector_skipped_total",
		"skygraph_vector_fallbacks_total", "skygraph_vector_rebuilds_total",
		"skygraph_vector_rebuild_seconds_total",
		"skygraph_stage_seconds_total", "skygraph_stage_pairs_total", "skygraph_stage_pruned_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter\n") {
			t.Errorf("/metrics lost the %s family", family)
		}
	}
}
