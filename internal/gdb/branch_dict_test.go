package gdb_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/testutil"
	"skygraph/internal/topk"
)

var freshLabels atomic.Int64

// freshLabel returns a label no graph in this process has carried, in
// ascending order from call to call.
func freshLabel() string {
	return fmt.Sprintf("dict%08d", freshLabels.Add(1))
}

// star returns a graph whose vertex 0, labelled center, holds three C
// leaves on single bonds, after the isolated vertices labelled first.
func star(name, center string, first ...string) *graph.Graph {
	g := graph.New(name)
	for _, l := range first {
		g.AddVertex(l)
	}
	c := g.AddVertex(center)
	for i := 0; i < 3; i++ {
		g.MustAddEdge(c, g.AddVertex("C"), "-")
	}
	return g
}

// TestQueriesNeverGrowBranchDictionary: skyline, top-k and range queries
// whose labels no stored graph carries leave the branch dictionary as
// it was — only inserts intern — and answer like the reference. A graph
// inserted afterwards brings new branches whose dictionary ids must
// never pass for one of an older query signature's local ids: DeltaRow
// and DeltaScore against that signature still match the reference.
func TestQueriesNeverGrowBranchDictionary(t *testing.T) {
	ctx := context.Background()
	gs := testutil.SeededGraphs(81, 10)
	// A C leaf on a single bond is a stored branch, so the stars' leaves
	// below resolve to dictionary ids.
	gs = append(gs, star("leaves", "C"))
	db := testutil.NewSharded(t, gs)
	before := gdb.BranchDictLen()
	opts := gdb.QueryOptions{Workers: 2}
	for i, q := range testutil.SeededQueries(181, gs[:10], 8) {
		q.RelabelVertex(0, freshLabel())
		if i%2 == 1 {
			q.MustAddEdge(0, q.AddVertex(freshLabel()), freshLabel())
		}
		label := fmt.Sprintf("q%d", i)
		sky, err := db.SkylineQuery(ctx, q, gdb.QueryOptions{Prune: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSameSkyline(t, label, testutil.ReferenceSkyline(gs, q, measure.Options{}), sky.Skyline)
		scores := testutil.ReferenceScores(gs, q, measure.DistEd{}, measure.Options{})
		tk, err := db.TopKQuery(ctx, q, measure.DistEd{}, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSameItems(t, label+"/topk", testutil.ReferenceTopK(scores, 3), tk.Items)
		rg, err := db.RangeQuery(ctx, q, measure.DistEd{}, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireSameItems(t, label+"/range", testutil.ReferenceRange(scores, 4), rg.Items)
	}
	if after := gdb.BranchDictLen(); after != before {
		t.Fatalf("queries grew the branch dictionary from %d to %d entries", before, after)
	}

	// The query's two unseen branches take local ids in branch order:
	// the star's center, then the isolated vertex. The late graph
	// interns the isolated vertex, a third new branch, then the center,
	// in that order. Had local ids continued the dictionary's numbering,
	// each query branch would meet a different late branch under the
	// same id and cancel as a false twin, leaving the center's degree-3
	// branch unmatched: a bound of 3 against a distance of 1.
	center, lone := freshLabel(), freshLabel()
	q := star("q", center, lone)
	qsig := measure.NewSignature(q)
	qsig.BranchTable() // built before the late branches exist
	tab, err := db.VectorTable(ctx, q, gdb.QueryOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	late := star("late", center, lone, freshLabel())
	ack, err := db.Insert(late, "")
	if err != nil {
		t.Fatal(err)
	}
	if grown := gdb.BranchDictLen() - before; grown != 3 {
		t.Fatalf("the late insert added %d dictionary entries, want 3", grown)
	}
	ps := measure.Compute(late, q, measure.Options{})
	ref := measure.GCS(ps, measure.Default())
	wantKept := !slices.ContainsFunc(tab.Points, func(p skyline.Point) bool { return skyline.Dominates(p.Vec, ref) })
	pt, kept, _, gen, ok := db.DeltaRow(late.Name(), q, qsig, tab.Points, gdb.QueryOptions{})
	switch {
	case !ok || gen != ack.Gen:
		t.Fatalf("DeltaRow ok=%v gen=%d, want true/%d", ok, gen, ack.Gen)
	case kept != wantKept || kept && !slices.Equal(pt.Vec, ref):
		t.Fatalf("DeltaRow kept=%v %v, reference kept=%v %v", kept, pt.Vec, wantKept, ref)
	}
	score := measure.DistEd{}.FromStats(ps)
	if score != 1 {
		t.Fatalf("the late graph is %v edits from the query, want 1: the fixture lost its shape", score)
	}
	for _, th := range []float64{score - 1, score, score + 1, math.Inf(1)} {
		got, fits, _, _, ok := db.DeltaScore(late.Name(), q, qsig, measure.DistEd{}, th, gdb.QueryOptions{})
		if !ok || fits != (score <= th) || fits && got != score {
			t.Fatalf("DeltaScore th=%v: %v in=%v ok=%v, reference %v", th, got, fits, ok, score)
		}
	}
}

// TestScansWhileInsertsInternBranches runs two-worker skyline and range
// scans while inserts intern new branches into the dictionary their
// tables read. The inserted graphs share no label with the queries, so
// they can join no answer: every answer is the reference's over the
// first graphs. Under -race it checks the tables' row fills and the
// dictionary's growth.
func TestScansWhileInsertsInternBranches(t *testing.T) {
	ctx := context.Background()
	gs := testutil.SeededGraphs(91, 10)
	db := testutil.NewSharded(t, gs)
	queries := testutil.SeededQueries(191, gs, 3)
	const radius = 3
	far := func(i int) *graph.Graph {
		g := graph.New(fmt.Sprintf("far%d", i))
		for v := 0; v < 8; v++ {
			g.AddVertex(freshLabel())
			if v > 0 {
				g.MustAddEdge(v-1, v, freshLabel())
			}
		}
		return g
	}
	type want struct {
		sky []skyline.Point
		rg  []topk.Item
	}
	wants := make([]want, len(queries))
	for i, q := range queries {
		wants[i].sky = testutil.ReferenceSkyline(gs, q, measure.Options{})
		wants[i].rg = testutil.ReferenceRange(testutil.ReferenceScores(gs, q, measure.DistEd{}, measure.Options{}), radius)
	}
	// The inserter keeps interning until both readers are done.
	var readers, inserter sync.WaitGroup
	done := make(chan struct{})
	inserter.Add(1)
	go func() {
		defer inserter.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.Insert(far(i), ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			opts := gdb.QueryOptions{Workers: 2}
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					label := fmt.Sprintf("reader %d round %d q%d", r, round, i)
					sky, err := db.SkylineQuery(ctx, q, gdb.QueryOptions{Prune: true, Workers: 2})
					if err != nil {
						t.Error(err)
						return
					}
					testutil.RequireSameSkyline(t, label, wants[i].sky, sky.Skyline)
					rg, err := db.RangeQuery(ctx, q, measure.DistEd{}, radius, opts)
					if err != nil {
						t.Error(err)
						return
					}
					testutil.RequireSameItems(t, label+"/range", wants[i].rg, rg.Items)
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	inserter.Wait()
	// The premise: with every far graph in, the reference answers are
	// unchanged.
	all := db.Graphs()
	if len(all) == len(gs) {
		t.Fatal("no far graph was inserted")
	}
	t.Logf("%d far graphs inserted beside the scans", len(all)-len(gs))
	for i, q := range queries {
		label := fmt.Sprintf("q%d with %d far graphs", i, len(all)-len(gs))
		testutil.RequireSameSkyline(t, label, testutil.ReferenceSkyline(all, q, measure.Options{}), wants[i].sky)
		testutil.RequireSameItems(t, label+"/range", testutil.ReferenceRange(testutil.ReferenceScores(all, q, measure.DistEd{}, measure.Options{}), radius), wants[i].rg)
	}
}
