package gdb_test

import (
	"context"
	"fmt"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestPrunedSkylineRerunsMatchUnpruned: the pruned skyline stays
// byte-identical to the unpruned reference, on the first run and on a
// rerun over the same database alike.
func TestPrunedSkylineRerunsMatchUnpruned(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewDB(t, gs)
		db := testutil.NewDB(t, gs)
		for qi, q := range testutil.SeededQueries(seed+100, gs, 3) {
			label := fmt.Sprintf("seed=%d q=%d", seed, qi)
			opts := gdb.QueryOptions{}
			want, err := ref.SkylineQuery(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Prune = true
			for round := 0; round < 2; round++ {
				got, err := db.SkylineQuery(context.Background(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSkyline(t, fmt.Sprintf("%s round=%d", label, round), want.Skyline, got.Skyline)
				requireCovers(t, label, got.Stats, len(gs))
			}
		}
	}
}

// TestRankedRerunsMatchReference: top-k and range answers equal the
// independent reference, on the first run and on a rerun over the same
// database.
func TestRankedRerunsMatchReference(t *testing.T) {
	gs := testutil.SeededGraphs(31, 18)
	qs := testutil.SeededQueries(131, gs, 2)
	ctx := context.Background()
	for _, m := range []measure.Measure{measure.DistEd, measure.DistGu} {
		for _, q := range qs {
			scores := testutil.ReferenceScores(gs, q, m)
			refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
			db := testutil.NewDB(t, gs)
			label := fmt.Sprintf("%s/%s", q.Name(), m.Name())
			for round := 0; round < 2; round++ {
				tk, err := db.TopKQuery(ctx, q, m, 4, gdb.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameItems(t, label+"/topk", refTK, tk.Items)
				rg, err := db.RangeQuery(ctx, q, m, 4, gdb.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameItems(t, label+"/range", refRG, rg.Items)
			}
		}
	}
}

// TestRankedMatchesReference: top-k and range answers on the paper and
// seeded collections equal the independent reference.
func TestRankedMatchesReference(t *testing.T) {
	seeded := testutil.SeededGraphs(61, 18)
	cases := []struct {
		label string
		gs    []*graph.Graph
		qs    []*graph.Graph
	}{
		{"paper", dataset.PaperDB(), []*graph.Graph{dataset.PaperQuery()}},
		{"seeded", seeded, testutil.SeededQueries(161, seeded, 2)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, m := range []measure.Measure{measure.DistEd, measure.DistGu} {
			for _, q := range tc.qs {
				scores := testutil.ReferenceScores(tc.gs, q, m)
				refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
				db := testutil.NewDB(t, tc.gs)
				label := fmt.Sprintf("%s/%s/%s", tc.label, q.Name(), m.Name())
				tk, err := db.TopKQuery(ctx, q, m, 4, gdb.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameItems(t, label+"/topk", refTK, tk.Items)
				rg, err := db.RangeQuery(ctx, q, m, 4, gdb.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameItems(t, label+"/range", refRG, rg.Items)
			}
		}
	}
}

// TestPrunedSkylineScoresOrPrunesEveryGraph: pruned skyline answers
// match the unpruned reference, and every graph is either scored or
// pruned.
func TestPrunedSkylineScoresOrPrunesEveryGraph(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewDB(t, gs)
		for qi, q := range testutil.SeededQueries(seed+100, gs, 2) {
			opts := gdb.QueryOptions{}
			want, err := ref.SkylineQuery(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			db := testutil.NewDB(t, gs)
			label := fmt.Sprintf("seed=%d q=%d", seed, qi)
			popts := opts
			popts.Prune = true
			got, err := db.SkylineQuery(context.Background(), q, popts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameSkyline(t, label, want.Skyline, got.Skyline)
			requireCovers(t, label, got.Stats, len(gs))
		}
	}
}

// TestPrunedSkylineSurvivesMutations: after deletes and inserts, the pruned
// skyline of the mutated database equals the reference over the graphs
// it now holds.
func TestPrunedSkylineSurvivesMutations(t *testing.T) {
	gs := testutil.SeededGraphs(51, 16)
	db := testutil.NewDB(t, gs)
	q := testutil.SeededQueries(151, gs, 1)[0]
	opts := gdb.QueryOptions{}

	mutate(t, db, []string{gs[0].Name(), gs[7].Name()}, testutil.SeededGraphs(251, 4))

	ref := testutil.NewDB(t, db.Graphs())
	want, err := ref.SkylineQuery(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.Prune = true
	got, err := db.SkylineQuery(context.Background(), q, popts)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameSkyline(t, "after-mutations", want.Skyline, got.Skyline)
}

// TestAnswersSurviveMutations: after deletes and inserts, the top-k
// answer and the pruned skyline of the mutated database equal those of
// a database built fresh from the graphs it now holds.
func TestAnswersSurviveMutations(t *testing.T) {
	gs := testutil.SeededGraphs(81, 16)
	db := testutil.NewDB(t, gs)
	q := testutil.SeededQueries(181, gs, 1)[0]

	mutate(t, db, []string{gs[0].Name(), gs[9].Name()}, testutil.SeededGraphs(281, 6))
	if db.Len() != len(gs)-2+6 {
		t.Fatalf("after mutations: %d graphs, want %d", db.Len(), len(gs)-2+6)
	}

	ref := testutil.NewDB(t, db.Graphs())
	wantTK, err := ref.TopKQuery(context.Background(), q, measure.DistEd, 4, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotTK, err := db.TopKQuery(context.Background(), q, measure.DistEd, 4, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameItems(t, "after-mutations/topk", wantTK.Items, gotTK.Items)
	want, err := ref.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameSkyline(t, "after-mutations/skyline", want.Skyline, got.Skyline)
}

// mutate deletes the named graphs from db and inserts extra under
// fresh "x"-prefixed names.
func mutate(t *testing.T, db *gdb.DB, victims []string, extra []*graph.Graph) {
	t.Helper()
	for _, name := range victims {
		if ack, err := db.Delete(name, ""); !ack.Existed || err != nil {
			t.Fatalf("delete %s: ack %+v, err %v", name, ack, err)
		}
	}
	for _, g := range extra {
		g.SetName("x" + g.Name())
		if _, err := db.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
}
