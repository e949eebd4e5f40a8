package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestWorkCountersOnWire: cold /query/topk and /query/skyline answers
// surface their work counters, a warm rerun served from the answer
// cache reports zero fresh work, and /stats totals the activity.
func TestWorkCountersOnWire(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, dataset.PaperDB())
	q := dataset.PaperQuery()

	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if tk.Stats.CacheHit || tk.Stats.Evaluated+tk.Stats.Pruned != 7 {
		t.Fatalf("cold topk stats = %+v; want a scan over all 7 graphs", tk.Stats)
	}

	// Same query again: the ranked answer cache serves it, no fresh work.
	var warm TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &warm)
	if !warm.Stats.CacheHit || warm.Stats.Work != (gdb.Work{}) {
		t.Fatalf("warm topk should be a pure cache hit: %+v", warm.Stats)
	}

	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if sky.Stats.CacheHit || sky.Stats.Evaluated+sky.Stats.Pruned != 7 {
		t.Fatalf("cold skyline stats = %+v; want a scan over all 7 graphs", sky.Stats)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests.PairEvals != uint64(tk.Stats.Evaluated+sky.Stats.Evaluated) ||
		st.Requests.PairsPruned != uint64(tk.Stats.Pruned+sky.Stats.Pruned) {
		t.Fatalf("/stats requests = %+v; want the two cold scans' work", st.Requests)
	}
}

// TestWorkCountersInBatch: batch stats aggregate the per-item work
// counters.
func TestWorkCountersInBatch(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 32}, dataset.PaperDB())
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
	if resp.Stats.Evaluated+resp.Stats.Pruned != 2*7 {
		t.Fatalf("batch stats = %+v; want both items' scans over all 7 graphs", resp.Stats)
	}
}

// TestWarmEndpoint: /cache/warm builds what the same skyline request
// would — pruned tables, or complete ones for an item that sets "all" —
// so later skyline requests of the same kind answer from cache, ranked
// requests run their own scan, and malformed entries fail in place.
func TestWarmEndpoint(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 32}, dataset.PaperDB())
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
	// a ranked request runs its own scan.
	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if !sky.Stats.CacheHit || sky.Stats.Evaluated != 0 {
		t.Fatalf("skyline after warm not a cache hit: %+v", sky.Stats)
	}
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if tk.Stats.CacheHit || tk.Stats.Evaluated+tk.Stats.Pruned != 7 {
		t.Fatalf("topk after a pruned warm did not run its own scan: %+v", tk.Stats)
	}

	// On a fresh server, an "all" item builds complete tables, which
	// serve "all" skylines only: a plain skyline builds its own pruned
	// tables, and a ranked request runs its own scan.
	_, ts = newTestServerWith(t, Config{CacheSize: 32}, dataset.PaperDB())
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
	if tk.Stats.CacheHit || tk.Stats.Evaluated+tk.Stats.Pruned != 7 {
		t.Fatalf("topk after all warm was served from tables: %+v", tk.Stats)
	}
	scores := testutil.ReferenceScores(dataset.PaperDB(), q, measure.DistEd)
	testutil.RequireSameItems(t, "topk after all warm", testutil.ReferenceTopK(scores, 3), wireItems(tk.Items))
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	if sky.Stats.CacheHit {
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
	s, _ := newTestServerWith(t, Config{CacheSize: 32}, testutil.SeededGraphs(41, 40))
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
