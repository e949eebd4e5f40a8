package server

// The tests in this file keep the names they had when they also ran the
// pivot or vector candidate tier. Both tiers are gone; each test now
// checks the tier-free server on the same data and shard counts.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/testutil"
)

// TestPivotServingEquivalence: with the score memo enabled, served
// skyline and top-k answers across shard counts match a one-shard
// reference server with no cache.
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
		_, ts := newMemoTestServer(t, shards, Config{CacheSize: 64}, dataset.PaperDB())
		var sky SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
		requireSameSkylineJSON(t, shards, 0, refSky.Skyline, sky.Skyline)
		var tk TopKResponse
		postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
		if !reflect.DeepEqual(tk.Items, refTK.Items) {
			t.Fatalf("shards=%d: topk items differ:\nref: %+v\ngot: %+v", shards, refTK.Items, tk.Items)
		}
	}
}

func servingTestGraphs() []*graph.Graph {
	return append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
}

// TestVectorServingEquivalence: served skyline, top-k and range answers
// across shard counts are byte-identical to a one-shard reference
// server with no cache, on a server with the score memo and on one
// without it.
func TestVectorServingEquivalence(t *testing.T) {
	gs := servingTestGraphs()
	queries := append(testutil.SeededQueries(77, gs, 2), dataset.PaperQuery())

	radius := 6.0
	refSky := make([]SkylineResponse, len(queries))
	refTK := make([]TopKResponse, len(queries))
	refRng := make([]RangeResponse, len(queries))
	{
		_, ts := newShardedTestServerWith(t, 1, Config{CacheSize: 0}, gs)
		for qi, q := range queries {
			postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &refSky[qi])
			postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: "DistEd"}, &refTK[qi])
			postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: "DistEd"}, &refRng[qi])
		}
	}

	for _, shards := range []int{1, 2, 3, 7} {
		_, tsMemo := newMemoTestServer(t, shards, Config{CacheSize: 64}, gs)
		_, tsPlain := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
		for _, ts := range []*httptest.Server{tsMemo, tsPlain} {
			for qi, q := range queries {
				var sky SkylineResponse
				postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &sky)
				requireSameSkylineJSON(t, shards, qi, refSky[qi].Skyline, sky.Skyline)

				var tk TopKResponse
				postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: "DistEd"}, &tk)
				if !reflect.DeepEqual(tk.Items, refTK[qi].Items) {
					t.Fatalf("shards=%d q=%d: topk items differ:\nref: %+v\ngot: %+v", shards, qi, refTK[qi].Items, tk.Items)
				}

				var rng RangeResponse
				postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: "DistEd"}, &rng)
				if !reflect.DeepEqual(rng.Items, refRng[qi].Items) {
					t.Fatalf("shards=%d q=%d: range items differ:\nref: %+v\ngot: %+v", shards, qi, refRng[qi].Items, rng.Items)
				}
			}
		}
	}
}

// TestVectorServerRestart: after a durable close-and-reopen at a
// different shard count, /stats counts every graph across the new
// shards and the skyline and top-k answers are unchanged.
func TestVectorServerRestart(t *testing.T) {
	dir := t.TempDir()
	gs := testutil.SeededGraphs(6, 24)
	q := testutil.SeededQueries(81, gs, 1)[0]

	open := func(shards int) (*gdb.Durable, *httptest.Server) {
		d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		s := New(d.DB, Config{CacheSize: 16, Durable: d})
		return d, httptest.NewServer(s.Handler())
	}

	d1, ts1 := open(2)
	resp := postJSON(t, ts1.URL+"/graphs", InsertRequest{Graphs: gs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	countGraphs := func(ts *httptest.Server, shards int) int {
		var st StatsResponse
		getJSON(t, ts.URL+"/stats", &st)
		if len(st.Shards) != shards {
			t.Fatalf("/stats lists %d shards, want %d", len(st.Shards), shards)
		}
		n := 0
		for _, sh := range st.Shards {
			n += sh.Graphs
		}
		return n
	}
	if n := countGraphs(ts1, 2); n != len(gs) {
		t.Fatalf("pre-restart graphs = %d, want %d", n, len(gs))
	}
	var sky1 SkylineResponse
	postJSON(t, ts1.URL+"/query/skyline", QueryRequest{Graph: q}, &sky1)
	var tk1 TopKResponse
	postJSON(t, ts1.URL+"/query/topk", QueryRequest{Graph: q, K: 5, Measure: "DistGu"}, &tk1)

	ts1.Close()
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, ts2 := open(3)
	defer ts2.Close()
	defer d2.Close()

	if n := countGraphs(ts2, 3); n != len(gs) {
		t.Fatalf("post-restart graphs = %d, want %d", n, len(gs))
	}
	var sky2 SkylineResponse
	postJSON(t, ts2.URL+"/query/skyline", QueryRequest{Graph: q}, &sky2)
	if !reflect.DeepEqual(sky1.Skyline, sky2.Skyline) {
		t.Fatalf("skyline changed across restart:\npre:  %+v\npost: %+v", sky1.Skyline, sky2.Skyline)
	}
	var tk2 TopKResponse
	postJSON(t, ts2.URL+"/query/topk", QueryRequest{Graph: q, K: 5, Measure: "DistGu"}, &tk2)
	if !reflect.DeepEqual(tk1.Items, tk2.Items) {
		t.Fatalf("topk changed across restart:\npre:  %+v\npost: %+v", tk1.Items, tk2.Items)
	}
}
