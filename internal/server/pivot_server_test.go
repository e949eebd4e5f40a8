package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/pivot"
	"skygraph/internal/testutil"
)

// newPivotTestServer serves the paper DB across nshards shards with the
// pivot index (fully built) and the score memo enabled.
func newPivotTestServer(t *testing.T, nshards int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := gdb.NewSharded(nshards)
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		t.Fatal(err)
	}
	db.EnablePivots(pivot.Config{Pivots: 3})
	db.EnableScoreMemo(1024)
	db.WaitPivots()
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestPivotCountersOnWire: /query/topk surfaces the pivot counters and
// /query/skyline — whose pruned build runs no pivot tier — reports
// none, both surface the memo counters; warm reruns served from the
// answer caches report zero fresh work, and /stats totals the activity.
func TestPivotCountersOnWire(t *testing.T) {
	_, ts := newPivotTestServer(t, 1, Config{CacheSize: 16})
	q := dataset.PaperQuery()

	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if tk.Stats.PivotDists == 0 {
		t.Fatalf("cold pruned topk computed no pivot distances: %+v", tk.Stats)
	}
	if tk.Stats.MemoMisses == 0 {
		t.Fatalf("cold pruned topk reported no memo lookups: %+v", tk.Stats)
	}

	// Same query again: the ranked answer cache serves it, no fresh work.
	var warm TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &warm)
	if !warm.Stats.CacheHit || warm.Stats.PivotDists != 0 || warm.Stats.MemoHits != 0 {
		t.Fatalf("warm topk should be a pure cache hit: %+v", warm.Stats)
	}

	// Skyline with pruning: the progressive scan pays no query-to-pivot
	// distance, and memo lookups flow through the table path too (topk
	// published scores only for the engine it ran; at minimum the lookups
	// are counted).
	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if sky.Stats.PivotDists != 0 {
		t.Fatalf("pruned skyline computed pivot distances: %+v", sky.Stats)
	}
	if sky.Stats.MemoHits+sky.Stats.MemoMisses == 0 {
		t.Fatalf("pruned skyline performed no memo lookups: %+v", sky.Stats)
	}

	// /stats: global counters and per-shard pivot occupancy.
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests.PivotDists == 0 {
		t.Fatalf("global pivot_dists is 0: %+v", st.Requests)
	}
	if st.Memo == nil || st.Memo.Entries == 0 {
		t.Fatalf("memo stats missing or empty: %+v", st.Memo)
	}
	if st.Shards[0].Pivots != 3 || st.Shards[0].PivotReady != 7 || st.Shards[0].PivotPending != 0 {
		t.Fatalf("shard pivot occupancy wrong: %+v", st.Shards[0])
	}
}

// TestPivotCountersInBatch: batch stats aggregate the per-item pivot
// and memo counters.
func TestPivotCountersInBatch(t *testing.T) {
	_, ts := newPivotTestServer(t, 2, Config{CacheSize: 32})
	q := dataset.PaperQuery()
	var resp BatchResponse
	postJSON(t, ts.URL+"/query/batch", map[string]any{
		"queries": []map[string]any{
			{"kind": "topk", "graph": q, "k": 2},
			{"kind": "range", "graph": q, "radius": 5.0},
		},
	}, &resp)
	if resp.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", resp.Results)
	}
	if resp.Stats.PivotDists == 0 {
		t.Fatalf("batch aggregated no pivot distances: %+v", resp.Stats)
	}
	if resp.Stats.MemoHits+resp.Stats.MemoMisses == 0 {
		t.Fatalf("batch aggregated no memo lookups: %+v", resp.Stats)
	}
}

// TestWarmEndpoint: /cache/warm builds what the same skyline request
// would — pruned tables, or complete ones for an item that sets "all" —
// so later skyline requests of the same kind answer from cache, ranked
// requests run their own scan, and malformed entries fail in place.
func TestWarmEndpoint(t *testing.T) {
	_, ts := newPivotTestServer(t, 2, Config{CacheSize: 32})
	q := dataset.PaperQuery()

	var wr WarmResponse
	postJSON(t, ts.URL+"/cache/warm", map[string]any{
		"queries": []map[string]any{
			{"graph": q},
			{}, // missing graph: per-item error
		},
	}, &wr)
	if len(wr.Results) != 2 {
		t.Fatalf("warm results: %+v", wr)
	}
	// A pruned build scores only what its scan cannot exclude.
	if wr.Results[0].Error != "" || wr.Results[0].Evaluated == 0 || wr.Results[0].Evaluated >= 7 {
		t.Fatalf("warm[0] = %+v, want a pruned build (0 < evaluated < 7)", wr.Results[0])
	}
	if wr.Results[1].Error == "" {
		t.Fatal("warm[1] (missing graph) did not error")
	}

	// The skyline request the warm item mirrors is served from its tables;
	// a ranked request runs its own scan over every shard.
	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if !sky.Stats.CacheHit || sky.Stats.Evaluated != 0 {
		t.Fatalf("skyline after warm not a cache hit: %+v", sky.Stats)
	}
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if tk.Stats.CacheHit || tk.Stats.ShardHits != 0 || tk.Stats.Evaluated+tk.Stats.Pruned != 7 {
		t.Fatalf("topk after a pruned warm did not run its own scan: %+v", tk.Stats)
	}

	// On a fresh server, an "all" item builds complete tables, which
	// serve "all" skylines only: a plain skyline builds its own pruned
	// tables, and a ranked request scans — but every pair it scores
	// replays from the memo the complete build filled.
	_, ts = newPivotTestServer(t, 2, Config{CacheSize: 32})
	postJSON(t, ts.URL+"/cache/warm", map[string]any{
		"queries": []map[string]any{{"graph": q, "all": true}},
	}, &wr)
	if len(wr.Results) != 1 || wr.Results[0].Error != "" || wr.Results[0].Evaluated != 7 {
		t.Fatalf("all warm = %+v, want 7 evaluated", wr.Results)
	}
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q, "all": true}, &sky)
	if !sky.Stats.CacheHit || sky.Stats.Evaluated != 0 {
		t.Fatalf("all skyline after all warm not a cache hit: %+v", sky.Stats)
	}
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if tk.Stats.CacheHit || tk.Stats.ShardHits != 0 {
		t.Fatalf("topk after all warm was served from tables: %+v", tk.Stats)
	}
	if tk.Stats.MemoMisses != 0 || tk.Stats.MemoHits != tk.Stats.Evaluated {
		t.Fatalf("topk after all warm ran engines: %+v", tk.Stats)
	}
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if sky.Stats.CacheHit || sky.Stats.ShardHits != 0 {
		t.Fatalf("plain skyline after all warm was served from complete tables: %+v", sky.Stats)
	}

	// Empty warm request is a 400.
	resp := postJSON(t, ts.URL+"/cache/warm", map[string]any{"queries": []map[string]any{}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty warm request: status %d", resp.StatusCode)
	}
}

// TestWarmEvaluationErrorsCounted: a warm item whose table build fails
// (here: the request context is already canceled) reports its error in
// place and counts in requests.errors, as a failed resolve or a failed
// batch item does.
func TestWarmEvaluationErrorsCounted(t *testing.T) {
	s, _ := newShardedTestServerWith(t, 1, Config{CacheSize: 32}, testutil.SeededGraphs(41, 40))
	body, err := json.Marshal(WarmRequest{Queries: []QueryRequest{{Graph: dataset.PaperQuery()}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/cache/warm", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var wr WarmResponse
	if err := json.NewDecoder(rec.Body).Decode(&wr); err != nil {
		t.Fatalf("warm answer (status %d): %v", rec.Code, err)
	}
	if len(wr.Results) != 1 || wr.Results[0].Error == "" {
		t.Fatalf("canceled warm item did not fail: %+v", wr)
	}
	if got := s.errors.Load(); got != 1 {
		t.Fatalf("requests.errors = %d after a failed warm item; want 1", got)
	}
}

// TestPivotServingEquivalence: with pivots + memo enabled, served
// answers across shard counts match a pivot-free reference server.
func TestPivotServingEquivalence(t *testing.T) {
	q := graph.Mutate(dataset.PaperQuery(), 2, graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rand.New(rand.NewSource(9)))
	q.SetName("qx")
	var refSky SkylineResponse
	var refTK TopKResponse
	{
		_, ts := newShardedTestServer(t, 1, Config{CacheSize: 0})
		postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &refSky)
		postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &refTK)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		_, ts := newPivotTestServer(t, shards, Config{CacheSize: 64})
		var sky SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
		requireSameSkylineJSON(t, shards, 0, refSky.Skyline, sky.Skyline)
		var tk TopKResponse
		postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
		if len(tk.Items) != len(refTK.Items) {
			t.Fatalf("shards=%d: topk sizes differ", shards)
		}
		for i := range tk.Items {
			if tk.Items[i] != refTK.Items[i] {
				t.Fatalf("shards=%d: topk item %d: %+v vs %+v", shards, i, tk.Items[i], refTK.Items[i])
			}
		}
	}
}
