package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/testutil"
)

// TestSkylineAnswerIsOneEntry: a skyline answer is one cache entry. An
// insert upgrades it in place; the delete of a skyline member drops the
// whole entry, and the repeat rebuilds the table.
func TestSkylineAnswerIsOneEntry(t *testing.T) {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{CacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := dataset.PaperQuery()
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &first)
	if first.Stats.CacheHit || first.Stats.Evaluated+first.Stats.Pruned != 7 {
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
	if !second.Stats.CacheHit || second.Stats.DeltaPatched != 1 {
		t.Fatalf("requery stats = %+v; want a hit, patched once", second.Stats)
	}

	before = s.Cache().Stats()
	deleteGraph(t, ts.URL+"/graphs/"+second.Skyline[0].ID)
	if after := s.Cache().Stats(); after.DeltaFallbacks != before.DeltaFallbacks+1 || s.Cache().Len() != 0 {
		t.Fatalf("front delete: cache %+v; want the whole entry dropped as one fallback", after)
	}
	var third SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &third)
	if third.Stats.CacheHit || third.Stats.Evaluated+third.Stats.Pruned != db.Len() {
		t.Fatalf("post-delete stats = %+v; want all %d graphs rebuilt", third.Stats, db.Len())
	}
	testutil.RequireSameSkyline(t, "rebuild", testutil.ReferenceSkyline(db.Graphs(), q), wirePoints(third.Skyline))
}

// TestIsomorphicRequeryIsFullCacheHit: an isomorphic re-encoding of a
// cached query evaluates nothing and gets the identical answer.
func TestIsomorphicRequeryIsFullCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
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
