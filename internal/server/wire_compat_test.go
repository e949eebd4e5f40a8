package server

import (
	"net/http"
	"reflect"
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
// what is on the wire, not on this package's types.
func TestWireCompat(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, gs)
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
		"evaluated", "pruned", "inexact", "memo_hits", "memo_misses", "delta_patched",
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
			"queries", "errors", "evaluated", "pruned", "memo_hits", "memo_misses",
			"delta_patched", "shard_hits", "duration_ms",
		}},
		{"/stats requests", stats["requests"], []string{
			"queries", "batches", "inserts", "deletes", "errors", "pair_evals", "pairs_pruned",
			"memo_hits", "memo_misses", "query_timeouts", "load_shed", "degraded_rejected",
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
		"skygraph_query_memo_hits_total", "skygraph_query_memo_misses_total",
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
}

// TestShardWireFieldsFixedAtOne pins the values of the wire fields left
// from the partitioned store: the database is one store, and clients
// still decoding them read what a single-shard daemon reported —
// "shards" 1, "shard_hits" 0 fresh and 1 on a hit, one /stats shards[]
// entry with index 0 carrying the graph count and generation, and the
// skygraph_shard_* families with one shard="0" series. The fields left
// from the cross-query score memo are pinned the same way: "memo_hits"
// and "memo_misses" read 0 on fresh and cached answers alike, and
// /stats has no "memo" object and /metrics no skygraph_memo_* family.
func TestShardWireFieldsFixedAtOne(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	q := QueryRequest{Graph: dataset.PaperQuery(), K: 3}
	for _, path := range []string{"/query/skyline", "/query/topk"} {
		for round, hits := range []int{0, 1} {
			var resp struct{ Stats QueryStats }
			postJSON(t, ts.URL+path, q, &resp)
			if resp.Stats.Shards != 1 || resp.Stats.ShardHits != hits {
				t.Fatalf("%s round %d: shards %d, shard_hits %d; want 1 and %d",
					path, round, resp.Stats.Shards, resp.Stats.ShardHits, hits)
			}
			if resp.Stats.MemoHits != 0 || resp.Stats.MemoMisses != 0 {
				t.Fatalf("%s round %d: memo_hits %d, memo_misses %d; want 0 and 0",
					path, round, resp.Stats.MemoHits, resp.Stats.MemoMisses)
			}
		}
	}
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: extraGraph("extra")}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	st := statsOf(t, ts.URL)
	if want := []ShardInfo{{Index: 0, Graphs: 8, Generation: st.Generation}}; !reflect.DeepEqual(st.Shards, want) || st.Generation != 8 {
		t.Fatalf("/stats shards %+v at generation %d; want %+v at 8", st.Shards, st.Generation, want)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, line := range []string{`skygraph_shard_graphs{shard="0"} 8`, `skygraph_shard_generation{shard="0"} 8`} {
		if !strings.Contains(text, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if n := strings.Count(text, "\nskygraph_shard_graphs{"); n != 1 {
		t.Errorf("/metrics has %d skygraph_shard_graphs series; want 1", n)
	}
	if strings.Contains(text, "skygraph_memo_") {
		t.Error("/metrics still carries a skygraph_memo_* family")
	}
	var raw map[string]any
	getJSON(t, ts.URL+"/stats", &raw)
	if m, ok := raw["memo"]; ok {
		t.Errorf("/stats still has a memo object: %v", m)
	}
}
