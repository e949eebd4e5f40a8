package server

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestRankedPrunesByDefaultAndMatchesFull: topk and range run the
// best-first bound-index evaluation and return items — scores and
// tie-order — identical to the leaf-function reference, across
// measures, on the HTTP path; an "all" skyline's complete
// tables never answer a later ranked request, which runs its own scan.
func TestRankedPrunesByDefaultAndMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(6, 15)...)
	radius := 4.0
	for _, name := range []string{"DistEd", "DistGu"} {
		m, err := measure.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
		for qi, q := range append(testutil.SeededQueries(88, gs, 2), dataset.PaperQuery()) {
			label := fmt.Sprintf("m=%s q=%d", name, qi)
			scores := testutil.ReferenceScores(gs, q, m)
			var tk TopKResponse
			if r := postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: name}, &tk); r.StatusCode != http.StatusOK {
				t.Fatalf("%s: topk status %d", label, r.StatusCode)
			}
			testutil.RequireSameItems(t, label+"/topk", testutil.ReferenceTopK(scores, 4), wireItems(tk.Items))
			var rg RangeResponse
			postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: name}, &rg)
			testutil.RequireSameItems(t, label+"/range", testutil.ReferenceRange(scores, radius), wireItems(rg.Items))

			postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &SkylineResponse{})
			var warm TopKResponse
			postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 5, Measure: name}, &warm)
			testutil.RequireSameItems(t, label+"/warm-topk", testutil.ReferenceTopK(scores, 5), wireItems(warm.Items))
			if warm.Stats.CacheHit || warm.Stats.Evaluated+warm.Stats.Pruned != len(gs) {
				t.Fatalf("%s: topk after an all skyline did not run its own scan: %+v", label, warm.Stats)
			}
		}
	}
}

// TestRankedColdPathMatchesFull: cold ranked evaluations (no warm tables
// anywhere) account for every graph and agree with the reference.
func TestRankedColdPathMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(9, 12)...)
	q := dataset.PaperQuery()
	want := testutil.ReferenceTopK(testutil.ReferenceScores(gs, q, measure.DistEd), 5)
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 5}, &tk)
	testutil.RequireSameItems(t, "cold", want, wireItems(tk.Items))
	if tk.Stats.CacheHit {
		t.Fatal("cold topk claims a cache hit")
	}
	if got := tk.Stats.Evaluated + tk.Stats.Pruned; got != len(gs) {
		t.Fatalf("evaluated %d + pruned %d != %d",
			tk.Stats.Evaluated, tk.Stats.Pruned, len(gs))
	}
}

// TestRankedAnswerCached: a repeated pruned ranked query is served from
// the ranked-answer cache with zero evaluations, and /stats totals the
// pruned pairs.
func TestRankedAnswerCached(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, dataset.PaperDB())
	q := dataset.PaperQuery()
	var first, second TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 2}, &first)
	if first.Stats.CacheHit {
		t.Fatal("first pruned topk claims a cache hit")
	}
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 2}, &second)
	if !second.Stats.CacheHit || second.Stats.Evaluated != 0 || second.Stats.Pruned != 0 {
		t.Fatalf("repeat pruned topk not served from cache: %+v", second.Stats)
	}
	if !reflect.DeepEqual(first.Items, second.Items) {
		t.Fatalf("cached items differ: %v vs %v", first.Items, second.Items)
	}
	st := statsOf(t, ts.URL)
	if st.Requests.PairEvals+st.Requests.PairsPruned < uint64(len(dataset.PaperDB())) {
		t.Fatalf("stats do not account for the scan: %+v", st.Requests)
	}
}

// TestRankedNeverShadowsFullTable: a pruned ranked answer must not
// satisfy (or block) a full-table request — the skyline-with-table
// request after a pruned topk still evaluates and returns every row.
func TestRankedNeverShadowsFullTable(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, dataset.PaperDB())
	q := dataset.PaperQuery()
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 2}, &tk)
	var sky SkylineResponse
	r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &sky)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("skyline status %d", r.StatusCode)
	}
	if len(sky.All) != len(dataset.PaperDB()) {
		t.Fatalf("full table after pruned topk holds %d rows; want %d", len(sky.All), len(dataset.PaperDB()))
	}
	if sky.Stats.CacheHit {
		t.Fatal("full-table request claims a cache hit off a ranked answer")
	}
}

// TestRankedMaintainedAcrossMutation: inserting a graph no longer
// discards a cached ranked answer — the delta layer upgrades it in
// place, and the patched answer matches a cold recompute exactly.
func TestRankedMaintainedAcrossMutation(t *testing.T) {
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, dataset.PaperDB())
	q := dataset.PaperQuery()
	var first TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &first)
	extra := testutil.SeededGraphs(33, 1)
	extra[0].SetName("late-arrival")
	postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: extra[0]}, &InsertResponse{})
	var second TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &second)
	if !second.Stats.CacheHit || second.Stats.Evaluated+second.Stats.Pruned != 0 {
		t.Fatalf("pruned topk after insert not delta-maintained: %+v", second.Stats)
	}
	if second.Stats.DeltaPatched == 0 {
		t.Fatalf("maintained answer reports no delta patches: %+v", second.Stats)
	}
	// The patched answer must be byte-identical to a cold recompute on a
	// server that never cached anything.
	_, tsCold := newTestServerWith(t, Config{CacheSize: 64}, append(dataset.PaperDB(), extra[0]))
	var cold TopKResponse
	postJSON(t, tsCold.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &cold)
	if !reflect.DeepEqual(cold.Items, second.Items) {
		t.Fatalf("delta-patched topk differs from cold recompute:\ncold  %v\ndelta %v", cold.Items, second.Items)
	}
}

// TestRankedFallsBackWhenMemberDeleted: deleting a member of a cached
// top-k answer is a mutation the delta proofs cannot cover (the k+1-th
// best is unknown), so the entry falls back to invalidation and the next
// ranked query rescans the live graphs.
func TestRankedFallsBackWhenMemberDeleted(t *testing.T) {
	s, ts := newTestServerWith(t, Config{CacheSize: 64}, dataset.PaperDB())
	q := dataset.PaperQuery()
	var first TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &first)
	victim := first.Items[0].ID
	deleteGraph(t, ts.URL+"/graphs/"+victim)
	if st := s.cache.Stats(); st.DeltaFallbacks == 0 {
		t.Fatalf("deleting top-k member %s recorded no fallback: %+v", victim, st)
	}
	var second TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &second)
	if second.Stats.CacheHit {
		t.Fatalf("topk after deleting a member served stale cache: %+v", second.Stats)
	}
	if got := second.Stats.Evaluated + second.Stats.Pruned; got != len(dataset.PaperDB())-1 {
		t.Fatalf("post-delete scan accounted %d graphs; want %d", got, len(dataset.PaperDB())-1)
	}
	var live []*graph.Graph
	for _, g := range dataset.PaperDB() {
		if g.Name() != victim {
			live = append(live, g)
		}
	}
	want := testutil.ReferenceTopK(testutil.ReferenceScores(live, q, measure.DistEd), 3)
	testutil.RequireSameItems(t, "post-delete topk", want, wireItems(second.Items))
}

// TestBatchRankedMixedKinds: a pure-ranked batch runs best-first scans
// and answers exactly as the reference does.
func TestBatchRankedMixedKinds(t *testing.T) {
	gs := dataset.PaperDB()
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
	radius := 3.0
	var resp BatchResponse
	postJSON(t, ts.URL+"/query/batch", BatchRequest{Queries: []BatchQuery{
		{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), K: 3}},
		{Kind: "range", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}},
	}}, &resp)
	if resp.Stats.Errors != 0 {
		t.Fatalf("pure-ranked batch errors: %+v", resp)
	}
	// Pure-ranked batch: best-first scans, some graphs pruned.
	if resp.Stats.Evaluated+resp.Stats.Pruned == 0 {
		t.Fatalf("pure-ranked batch did no work: %+v", resp.Stats)
	}
	// Cross-check against the independent reference.
	ref := testutil.ReferenceTopK(testutil.ReferenceScores(gs, dataset.PaperQuery(), measure.DistEd), 3)
	got := resp.Results[0].TopK
	if got == nil || len(got.Items) != len(ref) {
		t.Fatalf("batch topk = %+v, want %d items", got, len(ref))
	}
	for i := range ref {
		if got.Items[i].ID != ref[i].ID || got.Items[i].Score != ref[i].Score {
			t.Fatalf("batch topk item %d = %+v, want %+v", i, got.Items[i], ref[i])
		}
	}
}
