package server

import (
	"net/http"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// TestShardedServerMatchesSingleShard: the HTTP answers of a sharded
// server are byte-identical to a single-shard server's for all three
// query kinds, on the paper dataset. A ranked answer reads no shard
// table — not even the complete ones the "all" skyline just cached — so
// it reports 0 shard hits fresh and every shard on a ranked-cache hit.
func TestShardedServerMatchesSingleShard(t *testing.T) {
	_, ref := newShardedTestServer(t, 1, Config{CacheSize: 16})
	radius := 3.0
	var refSky SkylineResponse
	postJSON(t, ref.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), All: true}, &refSky)
	var refTk TopKResponse
	postJSON(t, ref.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &refTk)
	var refRg RangeResponse
	postJSON(t, ref.URL+"/query/range", QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}, &refRg)

	for _, shards := range []int{2, 3, 7} {
		_, ts := newShardedTestServer(t, shards, Config{CacheSize: 16})
		var sky SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), All: true}, &sky)
		if !reflect.DeepEqual(sky.Skyline, refSky.Skyline) || !reflect.DeepEqual(sky.All, refSky.All) {
			t.Fatalf("%d shards: skyline answer differs:\n got %+v\nwant %+v", shards, sky, refSky)
		}
		var tk TopKResponse
		postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &tk)
		if !reflect.DeepEqual(tk.Items, refTk.Items) {
			t.Fatalf("%d shards: topk answer differs:\n got %+v\nwant %+v", shards, tk.Items, refTk.Items)
		}
		if tk.Stats.CacheHit || tk.Stats.Shards != shards || tk.Stats.ShardHits != 0 {
			t.Fatalf("%d shards: fresh topk stats = %+v; want a miss with 0 shard hits", shards, tk.Stats)
		}
		postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &tk)
		if !tk.Stats.CacheHit || tk.Stats.ShardHits != shards {
			t.Fatalf("%d shards: repeat topk stats = %+v; want a hit on every shard", shards, tk.Stats)
		}
		var rg RangeResponse
		postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}, &rg)
		if !reflect.DeepEqual(rg.Items, refRg.Items) {
			t.Fatalf("%d shards: range answer differs:\n got %+v\nwant %+v", shards, rg.Items, refRg.Items)
		}
	}
}

// TestMutationTouchesOnlyOwningShard: after a query populates one
// table per shard, an insert upgrades the owning shard's table in place
// and leaves the others alone; the delete of a skyline member drops
// exactly the owning shard's entry, and the requery rebuilds only that
// shard.
func TestMutationTouchesOnlyOwningShard(t *testing.T) {
	const shards = 3
	s, ts := newShardedTestServer(t, shards, Config{CacheSize: 32})
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &first)
	if first.Stats.Evaluated+first.Stats.Pruned != 7 || first.Stats.ShardHits != 0 {
		t.Fatalf("cold query stats = %+v", first.Stats)
	}
	if got := s.Cache().Len(); got != shards {
		t.Fatalf("cache holds %d tables after cold query; want %d", got, shards)
	}

	g := graph.New("extra")
	g.AddVertex("a")
	g.AddVertex("b")
	g.MustAddEdge(0, 1, "x")
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d", r.StatusCode)
	}
	if got := s.Cache().Len(); got != shards {
		t.Fatalf("cache holds %d tables after insert; want %d (the owning shard's upgraded)", got, shards)
	}
	var second SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &second)
	if second.Stats.ShardHits != shards || second.Stats.DeltaPatched != 1 {
		t.Fatalf("requery stats = %+v; want %d shard hits, one of them patched", second.Stats, shards)
	}
	if len(second.Skyline) == 0 {
		t.Fatal("requery returned an empty skyline")
	}

	// Deleting a skyline member invalidates its shard; the others stay warm.
	victim := second.Skyline[0].ID
	owner := s.DB().ShardFor(victim)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if got := s.Cache().Len(); got != shards-1 {
		t.Fatalf("cache holds %d tables after a front delete; want %d (only the owning shard dropped)", got, shards-1)
	}
	var third SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &third)
	wantEval := s.DB().Shard(owner).Len()
	if third.Stats.ShardHits != shards-1 || third.Stats.Evaluated+third.Stats.Pruned != wantEval {
		t.Fatalf("post-delete stats = %+v; want %d shard hits and %d evaluated+pruned (owning shard only)",
			third.Stats, shards-1, wantEval)
	}
}

// TestIsomorphicQueryHitsShardedCache: the canonical query hash shares
// per-shard tables across isomorphic re-encodings too.
func TestIsomorphicQueryHitsShardedCache(t *testing.T) {
	_, ts := newShardedTestServer(t, 3, Config{CacheSize: 16})
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &first)
	var second SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: permutedPaperQuery(t)}, &second)
	if !second.Stats.CacheHit || second.Stats.Evaluated != 0 {
		t.Fatalf("isomorphic requery stats = %+v; want full cache hit", second.Stats)
	}
	if !reflect.DeepEqual(second.Skyline, first.Skyline) {
		t.Fatalf("isomorphic requery answer differs: %+v vs %+v", second.Skyline, first.Skyline)
	}
}
