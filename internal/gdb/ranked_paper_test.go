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

// requirePrunedRankedMatches asserts that the best-first top-k and range
// answers over gs are byte-identical — scores and tie-order — to the
// independent reference scores, for every sweep measure.
func requirePrunedRankedMatches(t *testing.T, gs []*graph.Graph, qs []*graph.Graph, k int, radius float64) {
	t.Helper()
	ctx := context.Background()
	measures := []measure.Measure{measure.DistEd, measure.DistMcs, measure.DistGu}
	popts := gdb.QueryOptions{}
	sh := testutil.NewDB(t, gs)
	for _, q := range qs {
		for _, m := range measures {
			scores := testutil.ReferenceScores(gs, q, m)
			refTK, refRG := testutil.ReferenceTopK(scores, k), testutil.ReferenceRange(scores, radius)
			label := q.Name() + "/" + m.Name()
			tk, err := sh.TopKQuery(ctx, q, m, k, popts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label+"/topk", refTK, tk.Items)
			if tk.Stats.Evaluated+tk.Stats.Pruned != len(gs) {
				t.Errorf("%s: evaluated %d + pruned %d != %d",
					label, tk.Stats.Evaluated, tk.Stats.Pruned, len(gs))
			}
			rg, err := sh.RangeQuery(ctx, q, m, radius, popts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label+"/range", refRG, rg.Items)
		}
	}
}

// rankedMeasures are the measures the paper-database sweeps cover: one
// from each engine family plus a signature-only feature measure.
var rankedMeasures = []measure.Measure{
	measure.DistEd, measure.DistNEd, measure.DistMcs, measure.DistGu, measure.DistVLabel,
}

// TestRankedTopKMatchesUnpruned asserts the best-first top-k scan
// returns the reference's items — ranking every graph — byte for byte
// (scores and tie-order), across measures and k values, on the paper
// database.
func TestRankedTopKMatchesUnpruned(t *testing.T) {
	gs, q := dataset.PaperDB(), dataset.PaperQuery()
	ctx := context.Background()
	db := testutil.NewDB(t, gs)
	for _, m := range rankedMeasures {
		scores := testutil.ReferenceScores(gs, q, m)
		for _, k := range []int{1, 2, 3, 7, 10} {
			want := testutil.ReferenceTopK(scores, k)
			label := fmt.Sprintf("%s k=%d", m.Name(), k)
			got, err := db.TopKQuery(ctx, q, m, k, gdb.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label, want, got.Items)
			if got.Stats.Evaluated+got.Stats.Pruned != db.Len() {
				t.Errorf("%s: evaluated %d + pruned %d != %d",
					label, got.Stats.Evaluated, got.Stats.Pruned, db.Len())
			}
		}
	}
}

// TestRankedRangeMatchesUnpruned is the range analogue, including the
// order of the returned items (insertion order).
func TestRankedRangeMatchesUnpruned(t *testing.T) {
	gs, q := dataset.PaperDB(), dataset.PaperQuery()
	ctx := context.Background()
	db := testutil.NewDB(t, gs)
	for _, m := range rankedMeasures {
		scores := testutil.ReferenceScores(gs, q, m)
		for _, radius := range []float64{0, 0.2, 0.5, 3, 10} {
			want := testutil.ReferenceRange(scores, radius)
			label := fmt.Sprintf("%s radius=%g", m.Name(), radius)
			got, err := db.RangeQuery(ctx, q, m, radius, gdb.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label, want, got.Items)
		}
	}
}

// TestPrunedRankedPaper checks top-k and range answers against
// the reference on the paper database.
func TestPrunedRankedPaper(t *testing.T) {
	requirePrunedRankedMatches(t, dataset.PaperDB(),
		[]*graph.Graph{dataset.PaperQuery()}, 3, 3)
}

// TestPrunedRankedSeeded is the property test over seeded random
// databases and mutated queries.
func TestPrunedRankedSeeded(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		gs := testutil.SeededGraphs(seed, 14)
		qs := testutil.SeededQueries(seed+100, gs, 2)
		requirePrunedRankedMatches(t, gs, qs, 4, 4)
	}
}
