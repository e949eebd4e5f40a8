package server

import (
	"net/http"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestRankedPrunesByDefaultAndMatchesFull: the default topk and range
// paths run the best-first bound-index evaluation and return items —
// scores and tie-order — identical to a forced-full (prune=false)
// evaluation, across shard counts and measures, on the HTTP path.
func TestRankedPrunesByDefaultAndMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(6, 15)...)
	radius := 4.0
	noPrune := false
	for _, shards := range []int{1, 2, 3, 7} {
		for _, m := range []string{"DistEd", "DistGu"} {
			_, ts := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
			for qi, q := range append(testutil.SeededQueries(88, gs, 2), dataset.PaperQuery()) {
				var full TopKResponse
				r := postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: m, Prune: &noPrune}, &full)
				if r.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d m=%s q=%d: full status %d", shards, m, qi, r.StatusCode)
				}
				var pruned TopKResponse
				r = postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: m}, &pruned)
				if r.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d m=%s q=%d: pruned status %d", shards, m, qi, r.StatusCode)
				}
				if !reflect.DeepEqual(full.Items, pruned.Items) {
					t.Fatalf("shards=%d m=%s q=%d: topk differs:\nfull   %v\npruned %v",
						shards, m, qi, full.Items, pruned.Items)
				}
				// The full tables are warm from the prune=false request,
				// so the pruned request is served from them.
				if !pruned.Stats.CacheHit || pruned.Stats.Evaluated != 0 {
					t.Fatalf("shards=%d m=%s q=%d: pruned topk missed the warm full tables: %+v",
						shards, m, qi, pruned.Stats)
				}
				var fullR, prunedR RangeResponse
				postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: m, Prune: &noPrune}, &fullR)
				postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: m}, &prunedR)
				if !reflect.DeepEqual(fullR.Items, prunedR.Items) {
					t.Fatalf("shards=%d m=%s q=%d: range differs:\nfull   %v\npruned %v",
						shards, m, qi, fullR.Items, prunedR.Items)
				}
			}
		}
	}
}

// TestRankedColdPathMatchesFull: cold pruned ranked evaluations (no
// warm tables anywhere) account for every graph and agree with the
// full path computed on a separate server.
func TestRankedColdPathMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(9, 12)...)
	noPrune := false
	for _, shards := range []int{1, 3} {
		_, tsFull := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
		_, tsPruned := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
		q := dataset.PaperQuery()
		var full, pruned TopKResponse
		postJSON(t, tsFull.URL+"/query/topk", QueryRequest{Graph: q, K: 5, Prune: &noPrune}, &full)
		postJSON(t, tsPruned.URL+"/query/topk", QueryRequest{Graph: q, K: 5}, &pruned)
		if !reflect.DeepEqual(full.Items, pruned.Items) {
			t.Fatalf("shards=%d: cold topk differs:\nfull   %v\npruned %v", shards, full.Items, pruned.Items)
		}
		if pruned.Stats.CacheHit {
			t.Fatalf("shards=%d: cold pruned topk claims a cache hit", shards)
		}
		if got := pruned.Stats.Evaluated + pruned.Stats.Pruned; got != len(gs) {
			t.Fatalf("shards=%d: evaluated %d + pruned %d != %d",
				shards, pruned.Stats.Evaluated, pruned.Stats.Pruned, len(gs))
		}
	}
}

// TestRankedAnswerCached: a repeated pruned ranked query is served from
// the ranked-answer cache with zero evaluations, and /stats totals the
// pruned pairs.
func TestRankedAnswerCached(t *testing.T) {
	_, ts := newShardedTestServerWith(t, 3, Config{CacheSize: 64}, dataset.PaperDB())
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
	_, ts := newShardedTestServerWith(t, 2, Config{CacheSize: 64}, dataset.PaperDB())
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
// place, and the patched answer matches a cold recompute exactly. With
// delta maintenance disabled, the insert falls back to invalidation.
func TestRankedMaintainedAcrossMutation(t *testing.T) {
	_, ts := newShardedTestServerWith(t, 2, Config{CacheSize: 64}, dataset.PaperDB())
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
	_, tsCold := newShardedTestServerWith(t, 2, Config{CacheSize: 64}, append(dataset.PaperDB(), extra[0]))
	var cold TopKResponse
	postJSON(t, tsCold.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &cold)
	if !reflect.DeepEqual(cold.Items, second.Items) {
		t.Fatalf("delta-patched topk differs from cold recompute:\ncold  %v\ndelta %v", cold.Items, second.Items)
	}
}

// TestRankedInvalidatedByMutationWithDeltaOff: with delta maintenance
// disabled, a mutation falls back to generation invalidation and the
// next ranked query rescans everything.
func TestRankedInvalidatedByMutationWithDeltaOff(t *testing.T) {
	_, ts := newShardedTestServerWith(t, 2, Config{CacheSize: 64, DisableDelta: true}, dataset.PaperDB())
	q := dataset.PaperQuery()
	var first TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &first)
	extra := testutil.SeededGraphs(33, 1)
	extra[0].SetName("late-arrival")
	postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: extra[0]}, &InsertResponse{})
	var second TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &second)
	if second.Stats.CacheHit {
		t.Fatalf("pruned topk after insert served stale cache: %+v", second.Stats)
	}
	if got := second.Stats.Evaluated + second.Stats.Pruned; got != len(dataset.PaperDB())+1 {
		t.Fatalf("post-insert scan accounted %d graphs; want %d", got, len(dataset.PaperDB())+1)
	}
}

// TestBatchRankedMixedKinds: a batch mixing pruned skyline and ranked
// items over the same query coalesces onto full builds (no double
// evaluation), while a pure-ranked batch keeps the pruned path.
func TestBatchRankedMixedKinds(t *testing.T) {
	gs := dataset.PaperDB()
	_, ts := newShardedTestServerWith(t, 2, Config{CacheSize: 64}, gs)
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
	ref := testutil.ReferenceTopK(testutil.ReferenceScores(gs, dataset.PaperQuery(), measure.DistEd{}, measure.Options{}), 3)
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
