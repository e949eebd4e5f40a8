package server

import (
	"fmt"
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

// TestPaperServingMatchesUncachedServer: served skyline and top-k
// answers for a mutated paper query match a reference server with no
// cache.
func TestPaperServingMatchesUncachedServer(t *testing.T) {
	q := graph.Mutate(dataset.PaperQuery(), 2, graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rand.New(rand.NewSource(9)))
	q.SetName("qx")
	var refSky SkylineResponse
	var refTK TopKResponse
	{
		_, ts := newTestServer(t, Config{CacheSize: 0})
		postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &refSky)
		postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &refTK)
	}
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, dataset.PaperDB())
	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", map[string]any{"graph": q}, &sky)
	requireSameSkylineJSON(t, "cached", refSky.Skyline, sky.Skyline)
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", map[string]any{"graph": q, "k": 3}, &tk)
	if !reflect.DeepEqual(tk.Items, refTK.Items) {
		t.Fatalf("topk items differ:\nref: %+v\ngot: %+v", refTK.Items, tk.Items)
	}
}

func servingTestGraphs() []*graph.Graph {
	return append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
}

// TestServingMatchesUncachedServer: served skyline, top-k and range
// answers are byte-identical to a reference server with no cache.
func TestServingMatchesUncachedServer(t *testing.T) {
	gs := servingTestGraphs()
	queries := append(testutil.SeededQueries(77, gs, 2), dataset.PaperQuery())

	radius := 6.0
	refSky := make([]SkylineResponse, len(queries))
	refTK := make([]TopKResponse, len(queries))
	refRng := make([]RangeResponse, len(queries))
	{
		_, ts := newTestServerWith(t, Config{CacheSize: 0}, gs)
		for qi, q := range queries {
			postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &refSky[qi])
			postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: "DistEd"}, &refTK[qi])
			postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: "DistEd"}, &refRng[qi])
		}
	}

	_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
	for qi, q := range queries {
		var sky SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &sky)
		requireSameSkylineJSON(t, fmt.Sprintf("q=%d", qi), refSky[qi].Skyline, sky.Skyline)

		var tk TopKResponse
		postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: "DistEd"}, &tk)
		if !reflect.DeepEqual(tk.Items, refTK[qi].Items) {
			t.Fatalf("q=%d: topk items differ:\nref: %+v\ngot: %+v", qi, refTK[qi].Items, tk.Items)
		}

		var rng RangeResponse
		postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius, Measure: "DistEd"}, &rng)
		if !reflect.DeepEqual(rng.Items, refRng[qi].Items) {
			t.Fatalf("q=%d: range items differ:\nref: %+v\ngot: %+v", qi, refRng[qi].Items, rng.Items)
		}
	}
}

// TestServerRestartKeepsAnswers: after a durable close-and-reopen,
// /stats counts every graph and the skyline and top-k answers are
// unchanged.
func TestServerRestartKeepsAnswers(t *testing.T) {
	dir := t.TempDir()
	gs := testutil.SeededGraphs(6, 24)
	q := testutil.SeededQueries(81, gs, 1)[0]

	open := func() (*gdb.Durable, *httptest.Server) {
		d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dir})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		s := New(d.DB, Config{CacheSize: 16, Durable: d})
		return d, httptest.NewServer(s.Handler())
	}

	d1, ts1 := open()
	resp := postJSON(t, ts1.URL+"/graphs", InsertRequest{Graphs: gs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	countGraphs := func(ts *httptest.Server) int {
		var st StatsResponse
		getJSON(t, ts.URL+"/stats", &st)
		return st.DB.Graphs
	}
	if n := countGraphs(ts1); n != len(gs) {
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

	d2, ts2 := open()
	defer ts2.Close()
	defer d2.Close()

	if n := countGraphs(ts2); n != len(gs) {
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
