package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/pivot"
	"skygraph/internal/testutil"
	"skygraph/internal/vector"
)

// serverVectorCfg keeps the partition small enough that the seeded test
// databases activate it (the index is dormant below Cells members).
var serverVectorCfg = vector.Config{Dims: 16, Cells: 4}

// newVectorTestServer serves gs across nshards shards with pivots,
// the score memo and the vector candidate tier all enabled — in that
// order, and before server construction, exactly as skygraphd wires a
// production daemon (so the per-shard vector gauges register too).
func newVectorTestServer(t *testing.T, nshards int, cfg Config, gs []*graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	db := gdb.NewSharded(nshards)
	if err := db.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	db.EnablePivots(pivot.Config{Pivots: 3})
	db.EnableScoreMemo(1024)
	db.WaitPivots()
	db.EnableVector(serverVectorCfg)
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func vectorTestGraphs() []*graph.Graph {
	return append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
}

// TestVectorServingEquivalence: with the vector tier under the whole
// cascade (pivots + memo on top), served skyline/topk/range answers
// across shard counts are byte-identical to a bare reference server —
// and so are the answers of a second server at the same shard count
// built without the tier (the "off" arm is chosen where the tier is
// attached), which must also report zero vector activity.
func TestVectorServingEquivalence(t *testing.T) {
	gs := vectorTestGraphs()
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
		_, ts := newVectorTestServer(t, shards, Config{CacheSize: 64}, gs)
		_, tsOff := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
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

			// The server without the tier: same answers, no vector work.
			var skyOff SkylineResponse
			postJSON(t, tsOff.URL+"/query/skyline", QueryRequest{Graph: q}, &skyOff)
			requireSameSkylineJSON(t, shards, qi, refSky[qi].Skyline, skyOff.Skyline)
			var tkOff TopKResponse
			postJSON(t, tsOff.URL+"/query/topk", QueryRequest{Graph: q, K: 4, Measure: "DistEd"}, &tkOff)
			if !reflect.DeepEqual(tkOff.Items, refTK[qi].Items) {
				t.Fatalf("shards=%d q=%d: tier-less topk items differ", shards, qi)
			}
			if tkOff.Stats.VectorCells != 0 || tkOff.Stats.VectorSkipped != 0 || tkOff.Stats.VectorFallbacks != 0 {
				t.Fatalf("shards=%d q=%d: tier-less topk reported vector activity: %+v", shards, qi, tkOff.Stats)
			}
			if skyOff.Stats.VectorCells != 0 || skyOff.Stats.VectorSkipped != 0 {
				t.Fatalf("shards=%d q=%d: tier-less skyline reported vector activity: %+v", shards, qi, skyOff.Stats)
			}
		}
	}
}

// TestVectorCountersOnWire: cold pruned ranked queries surface the
// vector-tier counters on /query responses while a cold pruned skyline
// reports none; /stats totals them and reports the per-shard partition
// occupancy; /metrics exposes the occupancy gauges and lifetime
// counters.
func TestVectorCountersOnWire(t *testing.T) {
	gs := vectorTestGraphs()
	_, ts := newVectorTestServer(t, 1, Config{CacheSize: 32}, gs)
	q := testutil.SeededQueries(78, gs, 1)[0]

	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3, Measure: "DistEd"}, &tk)
	if tk.Stats.VectorCells == 0 {
		t.Fatalf("cold pruned topk probed no vector cells: %+v", tk.Stats)
	}
	if tk.Stats.VectorFallbacks != 0 {
		t.Fatalf("quiescent database forced a vector fallback: %+v", tk.Stats)
	}

	// The tier serves ranked scans only: a cold pruned skyline on the
	// same server never consults the partition.
	var sky SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, Trace: true}, &sky)
	if sky.Stats.CacheHit || sky.Stats.Evaluated == 0 {
		t.Fatalf("skyline was not a cold build: %+v", sky.Stats)
	}
	if sky.Stats.VectorCells != 0 || sky.Stats.VectorSkipped != 0 {
		t.Fatalf("cold pruned skyline reported vector work: %+v", sky.Stats)
	}
	if _, _, _, byName := traceSums(sky.Trace); byName["vector"].Stage != "" || byName["bound"].Stage == "" {
		t.Fatalf("cold pruned skyline trace should hold bound but no vector stage: %+v", sky.Trace)
	}

	// Batch aggregation folds the per-item vector counters.
	q2 := testutil.SeededQueries(79, gs, 1)[0]
	var batch BatchResponse
	postJSON(t, ts.URL+"/query/batch", map[string]any{
		"queries": []map[string]any{
			{"kind": "topk", "graph": q2, "k": 2, "measure": "DistEd"},
			{"kind": "range", "graph": q2, "radius": 5.0, "measure": "DistEd"},
		},
	}, &batch)
	if batch.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", batch.Results)
	}
	if batch.Stats.VectorCells == 0 {
		t.Fatalf("batch aggregated no vector cells: %+v", batch.Stats)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Requests.VectorCells == 0 {
		t.Fatalf("global vector_cells_probed is 0: %+v", st.Requests)
	}
	if st.Shards[0].VectorCells != serverVectorCfg.Cells {
		t.Fatalf("shard vector cell count = %d, want %d", st.Shards[0].VectorCells, serverVectorCfg.Cells)
	}
	if st.Shards[0].VectorMembers != len(gs) {
		t.Fatalf("shard vector members = %d, want %d", st.Shards[0].VectorMembers, len(gs))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := string(b)
	for _, want := range []string{
		"skygraph_vector_cells_probed_total",
		"skygraph_vector_skipped_total",
		"skygraph_vector_fallbacks_total 0",
		`skygraph_vector_cells{shard="0"} 4`,
		`skygraph_vector_members{shard="0"} 24`,
		"skygraph_vector_rebuilds_total",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestVectorServerRestart: the vector tier carries no persistence of
// its own — after a durable close-and-reopen (at a different shard
// count), re-enabling it rebuilds the embeddings from the recovered
// graphs, /stats shows full occupancy, and answers are unchanged.
func TestVectorServerRestart(t *testing.T) {
	dir := t.TempDir()
	gs := testutil.SeededGraphs(6, 24)
	q := testutil.SeededQueries(81, gs, 1)[0]

	open := func(shards int) (*gdb.Durable, *httptest.Server) {
		d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		// After recovery, before serving: the same ordering skygraphd uses.
		d.DB.EnableVector(serverVectorCfg)
		s := New(d.DB, Config{CacheSize: 16, Durable: d})
		return d, httptest.NewServer(s.Handler())
	}

	d1, ts1 := open(2)
	resp := postJSON(t, ts1.URL+"/graphs", InsertRequest{Graphs: gs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	countMembers := func(ts *httptest.Server) int {
		var st StatsResponse
		getJSON(t, ts.URL+"/stats", &st)
		n := 0
		for _, sh := range st.Shards {
			n += sh.VectorMembers
		}
		return n
	}
	if n := countMembers(ts1); n != len(gs) {
		t.Fatalf("pre-restart vector members = %d, want %d", n, len(gs))
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

	if n := countMembers(ts2); n != len(gs) {
		t.Fatalf("post-restart vector members = %d, want %d", n, len(gs))
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
