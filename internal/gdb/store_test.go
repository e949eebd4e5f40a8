package gdb_test

import (
	"context"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestGetNamesAndDuplicate: graphs come back by name and in insertion
// order, and a duplicate name is refused.
func TestGetNamesAndDuplicate(t *testing.T) {
	gs := testutil.SeededGraphs(1, 10)
	sh := testutil.NewDB(t, gs)
	if sh.Len() != 10 {
		t.Fatalf("len = %d; want 10", sh.Len())
	}
	for _, g := range gs {
		if got, ok := sh.Get(g.Name()); !ok || got != g {
			t.Fatalf("Get(%s) = %v, %v", g.Name(), got, ok)
		}
	}
	names := sh.Names()
	for i, g := range gs {
		if names[i] != g.Name() {
			t.Fatalf("names[%d] = %s; want %s", i, names[i], g.Name())
		}
	}
	if ack, err := sh.Insert(gs[0], ""); err == nil || !ack.Existed {
		t.Fatalf("duplicate insert: ack %+v, err %v; want refused as existing", ack, err)
	}
}

// TestStatsAggregation: Stats, aggregated from the stored signatures,
// agrees with the graphs themselves.
func TestStatsAggregation(t *testing.T) {
	gs := testutil.SeededGraphs(3, 9)
	want := gdb.Stats{Graphs: len(gs), MinSize: gs[0].Size(), MaxSize: gs[0].Size()}
	vl, el := map[string]bool{}, map[string]bool{}
	for _, g := range gs {
		want.Vertices += g.Order()
		want.Edges += g.Size()
		want.MinSize = min(want.MinSize, g.Size())
		want.MaxSize = max(want.MaxSize, g.Size())
		for v := range g.Order() {
			vl[g.VertexLabel(v)] = true
		}
		for _, e := range g.Edges() {
			el[e.Label] = true
		}
	}
	want.VertexLabels, want.EdgeLabels = len(vl), len(el)
	if got := testutil.NewDB(t, gs).Stats(); got != want {
		t.Fatalf("stats %+v; want %+v", got, want)
	}
}

// TestEmptyDBSkyline: an empty database answers an empty skyline.
func TestEmptyDBSkyline(t *testing.T) {
	sh := gdb.New()
	res, err := sh.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 0 || len(res.All) != 0 {
		t.Fatalf("empty db answered %+v", res)
	}
}

// equivCase is one query to check against the reference.
type equivCase struct {
	q      *graph.Graph
	k      int
	radius float64
}

// requireMatchesReference asserts that the engine's skyline,
// full table, top-k and range answers over gs are byte-identical
// (reflect.DeepEqual, order included) to the independent reference
// computed straight from Definitions 11–12. Top-k and range come from
// the ranked scan, the skyline and table from both the table reads and
// SkylineQuery.
func requireMatchesReference(t *testing.T, gs []*graph.Graph, cases []equivCase) {
	t.Helper()
	ctx := context.Background()
	opts := gdb.QueryOptions{}
	m := measure.DistEd
	for ci, c := range cases {
		refPoints := testutil.ReferenceTable(gs, c.q)
		refSky := testutil.ReferenceSkyline(gs, c.q)
		scores := testutil.ReferenceScores(gs, c.q, m)
		refTopK, refRange := testutil.ReferenceTopK(scores, c.k), testutil.ReferenceRange(scores, c.radius)
		sh := testutil.NewDB(t, gs)
		tab, err := sh.VectorTable(ctx, c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := c.q.Name()
		if label == "" {
			label = "case"
		}
		if got := tab.Points; !reflect.DeepEqual(got, refPoints) {
			t.Fatalf("case %d: table rows differ:\n got %v\nwant %v", ci, got, refPoints)
		}
		gotSky := tab.Skyline()
		testutil.RequireSameSkyline(t, label, refSky, gotSky)
		if !reflect.DeepEqual(gotSky, refSky) {
			t.Fatalf("case %d: skyline order differs:\n got %v\nwant %v", ci, gotSky, refSky)
		}
		// The convenience wrapper agrees with the explicit
		// table-and-read path.
		skyRes, err := sh.SkylineQuery(ctx, c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(skyRes.Skyline, refSky) || !reflect.DeepEqual(skyRes.All, refPoints) {
			t.Fatalf("case %d: SkylineQuery differs from reference", ci)
		}
		tkRes, err := sh.TopKQuery(ctx, c.q, m, c.k, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSameItems(t, label+"/topk", refTopK, tkRes.Items)
		rgRes, err := sh.RangeQuery(ctx, c.q, m, c.radius, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSameItems(t, label+"/range", refRange, rgRes.Items)
	}
}

// TestMatchesReferencePaper is the acceptance check on the paper
// dataset: skyline / top-k / range answers are byte-identical to the
// reference's.
func TestMatchesReferencePaper(t *testing.T) {
	requireMatchesReference(t, dataset.PaperDB(),
		[]equivCase{{q: dataset.PaperQuery(), k: 3, radius: 3}})
}

// TestMatchesReferenceSeeded is the property test: seeded random
// databases and mutated queries — results must be identical to the
// reference, including order.
func TestMatchesReferenceSeeded(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		gs := testutil.SeededGraphs(seed, 12)
		qs := testutil.SeededQueries(seed+100, gs, 2)
		cases := make([]equivCase, len(qs))
		for i, q := range qs {
			cases[i] = equivCase{q: q, k: 4, radius: 5}
		}
		requireMatchesReference(t, gs, cases)
	}
}
