package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
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

// TestSkylineAnswerIsOneEntry: a skyline answer over several shards is
// one cache entry. An insert upgrades it in place through the owning
// shard's table; the delete of a skyline member drops the whole entry,
// and the repeat rebuilds every shard — with the score memo on, the
// pairs the first build scored replay instead of re-running engines.
func TestSkylineAnswerIsOneEntry(t *testing.T) {
	const shards = 3
	db := gdb.NewSharded(shards)
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		t.Fatal(err)
	}
	db.EnableScoreMemo(1024)
	s := New(db, Config{CacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := dataset.PaperQuery()
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &first)
	if first.Stats.CacheHit || first.Stats.ShardHits != 0 || first.Stats.Evaluated+first.Stats.Pruned != 7 {
		t.Fatalf("cold query stats = %+v", first.Stats)
	}
	if got := s.Cache().Len(); got != 1 {
		t.Fatalf("cache holds %d entries after a cold skyline; want 1", got)
	}

	before := s.Cache().Stats()
	g := extraGraph("extra")
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d", r.StatusCode)
	}
	if after := s.Cache().Stats(); after.DeltaApplied != before.DeltaApplied+1 || after.Entries != 1 {
		t.Fatalf("insert: cache %+v; want the one entry upgraded in place", after)
	}
	var second SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &second)
	if !second.Stats.CacheHit || second.Stats.ShardHits != shards || second.Stats.DeltaPatched != 1 {
		t.Fatalf("requery stats = %+v; want a hit on all %d shards, patched once", second.Stats, shards)
	}

	before = s.Cache().Stats()
	deleteGraph(t, ts.URL+"/graphs/"+second.Skyline[0].ID)
	if after := s.Cache().Stats(); after.DeltaFallbacks != before.DeltaFallbacks+1 || s.Cache().Len() != 0 {
		t.Fatalf("front delete: cache %+v; want the whole entry dropped as one fallback", after)
	}
	var third SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &third)
	if third.Stats.ShardHits != 0 || third.Stats.Evaluated+third.Stats.Pruned != db.Len() {
		t.Fatalf("post-delete stats = %+v; want every shard's %d graphs rebuilt", third.Stats, db.Len())
	}
	if third.Stats.MemoHits == 0 {
		t.Fatalf("post-delete stats = %+v; want the rebuild to replay scored pairs from the memo", third.Stats)
	}
	testutil.RequireSameSkyline(t, "rebuild", testutil.ReferenceSkyline(db.Graphs(), q, measure.Options{}), wirePoints(third.Skyline))
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
