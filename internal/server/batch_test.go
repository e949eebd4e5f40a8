package server

import (
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/testutil"
)

// permutedPaperQuery returns the paper query with its vertices
// renumbered in reverse: a different wire encoding of an isomorphic
// graph, which must share cache entries via the canonical query hash.
func permutedPaperQuery(t *testing.T) *graph.Graph {
	t.Helper()
	q := dataset.PaperQuery()
	n := q.Order()
	perm := graph.New("permuted-q")
	for i := n - 1; i >= 0; i-- {
		perm.AddVertex(q.VertexLabel(i))
	}
	for _, e := range q.Edges() {
		if err := perm.AddEdge(n-1-e.U, n-1-e.V, e.Label); err != nil {
			t.Fatal(err)
		}
	}
	return perm
}

// TestBatchCoalescesTableBuilds is the batch acceptance check: items
// over the same (isomorphism class of) query graph cost one evaluation
// per (query hash, path) — one pruned skyline build for
// the three skyline items, one ranked scan for the two identical top-k
// items and one for the range item, each accounting for all 7 paper
// graphs — and repeating the batch evaluates nothing, every item a hit.
func TestBatchCoalescesTableBuilds(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 32})
	radius := 3.0
	batch := BatchRequest{Queries: []BatchQuery{
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
		{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), K: 3}},
		{Kind: "topk", QueryRequest: QueryRequest{Graph: permutedPaperQuery(t), K: 3}},
		{Kind: "range", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}},
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: permutedPaperQuery(t)}},
	}}
	var resp BatchResponse
	r := postJSON(t, ts.URL+"/query/batch", batch, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", r.StatusCode)
	}
	if len(resp.Results) != 6 || resp.Stats.Errors != 0 {
		t.Fatalf("results = %d, errors = %d", len(resp.Results), resp.Stats.Errors)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("item %d failed: %s", i, res.Error)
		}
	}
	// Three paths, each covering the 7 database graphs exactly once
	// (evaluated or bound-pruned: no path reads another's entries);
	// the cache holds one entry per path: the skyline answer and the
	// two ranked answers.
	st := statsOf(t, ts.URL)
	if got := st.Requests.PairEvals + st.Requests.PairsPruned; got != 3*7 {
		t.Fatalf("evaluated + pruned = %d across the batch; want 21", got)
	}
	if got := s.Cache().Len(); got != 3 {
		t.Fatalf("cache holds %d entries; want 3", got)
	}
	// Repeating the whole batch is free: every item hits.
	var again BatchResponse
	postJSON(t, ts.URL+"/query/batch", batch, &again)
	if again.Stats.Evaluated != 0 {
		t.Fatalf("repeat batch evaluated %d pairs; want 0", again.Stats.Evaluated)
	}
	for i, res := range again.Results {
		if qs := res.stats(); !qs.CacheHit {
			t.Fatalf("repeat item %d stats = %+v; want full cache hit", i, qs)
		}
	}
}

// TestMixedBatchCostsNoMoreThanSingles: a cold batch mixing skyline,
// top-k and range items over one query graph runs each item on the path
// its kind fixes — the path its dedicated endpoint takes — never on a
// complete build it did not ask for, so no item evaluates more pairs than
// the same item sent alone. Skyline workers share a running front, so one
// processor makes those counts reproducible. The top-k item is held to
// the ranked path instead of to an exact count.
func TestMixedBatchCostsNoMoreThanSingles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gs := testutil.SeededGraphs(25, 240)
	q := testutil.SeededQueries(26, gs, 1)[0]
	radius := 3.0
	items := []BatchQuery{
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: q}},
		{Kind: "topk", QueryRequest: QueryRequest{Graph: q, K: 5}},
		{Kind: "range", QueryRequest: QueryRequest{Graph: q, Radius: &radius}},
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: q}},
	}

	_, tsBatch := newTestServerWith(t, Config{CacheSize: 64}, gs)
	var batch BatchResponse
	postJSON(t, tsBatch.URL+"/query/batch", BatchRequest{Queries: items}, &batch)
	if batch.Stats.Errors != 0 || len(batch.Results) != len(items) {
		t.Fatalf("mixed batch: %+v", batch)
	}
	if batch.Stats.Evaluated >= len(gs) {
		t.Fatalf("mixed batch evaluated %d of %d graphs: a complete build", batch.Stats.Evaluated, len(gs))
	}

	_, tsSingle := newTestServerWith(t, Config{CacheSize: 64}, gs)
	for i, it := range items {
		var single struct{ Stats QueryStats }
		if r := postJSON(t, tsSingle.URL+"/query/"+it.Kind, it.QueryRequest, &single); r.StatusCode != http.StatusOK {
			t.Fatalf("single %s: status %d", it.Kind, r.StatusCode)
		}
		got := batch.Results[i].stats()
		if it.Kind == "topk" {
			if got.Pruned == 0 || got.Evaluated+got.Pruned != len(gs) {
				t.Fatalf("batch topk did not run its own ranked scan: %+v", got)
			}
			continue
		}
		if got.Evaluated > single.Stats.Evaluated {
			t.Fatalf("batch item %d (%s) evaluated %d pairs; sent alone it evaluated %d",
				i, it.Kind, got.Evaluated, single.Stats.Evaluated)
		}
	}
}

// TestBatchMatchesSingleEndpoints: each batch item's answer is
// byte-identical to the dedicated endpoint's (stats aside).
func TestBatchMatchesSingleEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 32})
	radius := 3.0

	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), All: true}, &sky)
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &tk)
	var rg RangeResponse
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}, &rg)

	var batch BatchResponse
	postJSON(t, ts.URL+"/query/batch", BatchRequest{Queries: []BatchQuery{
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), All: true}},
		{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), K: 3}},
		{Kind: "range", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}},
	}}, &batch)
	if len(batch.Results) != 3 {
		t.Fatalf("batch results = %d; want 3", len(batch.Results))
	}
	bSky, bTk, bRg := batch.Results[0].Skyline, batch.Results[1].TopK, batch.Results[2].Range
	if bSky == nil || bTk == nil || bRg == nil {
		t.Fatalf("batch results missing answers: %+v", batch.Results)
	}
	if !reflect.DeepEqual(bSky.Skyline, sky.Skyline) || !reflect.DeepEqual(bSky.All, sky.All) {
		t.Fatalf("batch skyline differs from endpoint:\n batch %+v\n single %+v", bSky, sky)
	}
	if bTk.Measure != tk.Measure || bTk.K != tk.K || !reflect.DeepEqual(bTk.Items, tk.Items) {
		t.Fatalf("batch topk differs from endpoint:\n batch %+v\n single %+v", bTk, tk)
	}
	if bRg.Measure != rg.Measure || bRg.Radius != rg.Radius || !reflect.DeepEqual(bRg.Items, rg.Items) {
		t.Fatalf("batch range differs from endpoint:\n batch %+v\n single %+v", bRg, rg)
	}
}

// TestBatchItemErrorsDoNotFailBatch: invalid items report in place.
func TestBatchItemErrorsDoNotFailBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8})
	var resp BatchResponse
	r := postJSON(t, ts.URL+"/query/batch", BatchRequest{Queries: []BatchQuery{
		{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},    // missing k
		{Kind: "warp", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},    // unknown kind
		{Kind: "skyline", QueryRequest: QueryRequest{}},                            // missing graph
		{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}}, // fine
	}}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d; want 200 with per-item errors", r.StatusCode)
	}
	if resp.Stats.Errors != 3 {
		t.Fatalf("batch errors = %d; want 3", resp.Stats.Errors)
	}
	for i := 0; i < 3; i++ {
		if resp.Results[i].Error == "" {
			t.Fatalf("item %d should carry an error", i)
		}
	}
	if resp.Results[3].Error != "" || resp.Results[3].Skyline == nil {
		t.Fatalf("valid item failed: %+v", resp.Results[3])
	}
}

// TestBatchLimits: empty and oversized batches are rejected whole.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8, MaxBatch: 2})
	if r := postJSON(t, ts.URL+"/query/batch", BatchRequest{}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d; want 400", r.StatusCode)
	}
	over := BatchRequest{Queries: []BatchQuery{
		{QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
		{QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
		{QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
	}}
	if r := postJSON(t, ts.URL+"/query/batch", over, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d; want 400", r.StatusCode)
	}
}

// TestBatchDefaultKindIsSkyline: omitting kind runs a skyline query.
func TestBatchDefaultKindIsSkyline(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8})
	var resp BatchResponse
	postJSON(t, ts.URL+"/query/batch", BatchRequest{Queries: []BatchQuery{
		{QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
	}}, &resp)
	if len(resp.Results) != 1 || resp.Results[0].Kind != "skyline" || resp.Results[0].Skyline == nil {
		t.Fatalf("defaulted batch item = %+v; want a skyline answer", resp.Results)
	}
}
