package gdb_test

import (
	"context"
	"fmt"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
	"skygraph/internal/testutil"
)

// pivotCfg is the test configuration: small pivot sets and modest
// budgets so rebuilds finish instantly, plus a deliberately tiny-budget
// variant exercising the capped-interval algebra.
var pivotCfgs = []pivot.Config{
	{Pivots: 3},
	{Pivots: 3, MaxNodes: 5, QueryMaxNodes: 5}, // every column capped: wide intervals
}

// TestPivotIntervalsAdmissible: for paper and seeded DBs, the tier-0
// interval after pivot tightening must contain the GED that
// measure.Compute reports — exact and capped engines both.
func TestPivotIntervalsAdmissible(t *testing.T) {
	cases := []struct {
		label string
		gs    []*graph.Graph
		qs    []*graph.Graph
	}{
		{"paper", dataset.PaperDB(), []*graph.Graph{dataset.PaperQuery()}},
		{"seeded", testutil.SeededGraphs(5, 16), testutil.SeededQueries(105, testutil.SeededGraphs(5, 16), 3)},
	}
	evals := []measure.Options{{}, {GEDMaxNodes: 200, MCSMaxNodes: 200}}
	for _, tc := range cases {
		for ci, cfg := range pivotCfgs {
			db := testutil.NewSharded(t, 1, tc.gs)
			db.EnablePivots(cfg)
			ix := db.Shard(0).PivotIndex()
			ix.Wait()
			for _, eval := range evals {
				for _, q := range tc.qs {
					qsig := measure.NewSignature(q)
					qb := ix.Columns().Query(q, qsig)
					if qb == nil {
						t.Fatalf("%s cfg=%d: pivot index not ready", tc.label, ci)
					}
					for _, g := range tc.gs {
						bs := measure.BoundPair(measure.NewSignature(g), qsig)
						lo, hi, ok := qb.GED(g.Name())
						if !ok {
							t.Fatalf("%s cfg=%d: no pivot column for %s", tc.label, ci, g.Name())
						}
						// The upper bound only brackets the *reported* GED
						// when the engine is uncapped (see TightenGED).
						if eval.GEDMaxNodes != 0 {
							hi = bs.GEDHi
						}
						bs.TightenGED(lo, hi)
						ps := measure.Compute(g, q, eval)
						if ps.GED < bs.GEDLo || ps.GED > bs.GEDHi {
							t.Fatalf("%s cfg=%d eval=%+v: reported GED(%s,%s)=%v outside pivot-tightened [%v, %v]",
								tc.label, ci, eval, g.Name(), q.Name(), ps.GED, bs.GEDLo, bs.GEDHi)
						}
					}
				}
			}
		}
	}
}

// pivotDB builds a one-shard database with pivots (and optionally a
// memo) enabled and fully built.
func pivotDB(t *testing.T, gs []*graph.Graph, cfg pivot.Config, memo bool) *gdb.Sharded {
	t.Helper()
	db := testutil.NewSharded(t, 1, gs)
	db.EnablePivots(cfg)
	db.WaitPivots()
	if memo {
		db.EnableScoreMemo(4096)
	}
	return db
}

// TestPrunedSkylineWithPivotsSeeded: the skyline property test with the
// pivot tier and the score memo live — answers must stay byte-identical
// to the unpruned reference, on the first (cold memo) and second (warm
// memo) run alike.
func TestPrunedSkylineWithPivotsSeeded(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewSharded(t, 1, gs)
		for ci, cfg := range pivotCfgs {
			db := pivotDB(t, gs, cfg, true)
			for qi, q := range testutil.SeededQueries(seed+100, gs, 3) {
				label := fmt.Sprintf("seed=%d cfg=%d q=%d", seed, ci, qi)
				opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 2000, MCSMaxNodes: 2000}}
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
					if got.Stats.Evaluated+got.Stats.Pruned != len(gs) {
						t.Fatalf("%s: evaluated %d + pruned %d != %d",
							label, got.Stats.Evaluated, got.Stats.Pruned, len(gs))
					}
					if round == 1 && got.Stats.MemoHits == 0 {
						t.Fatalf("%s: warm rerun hit the memo 0 times", label)
					}
				}
			}
		}
	}
}

// TestPrunedRankedWithPivotsSharded: top-k and range equivalence with
// pivots + memo at shard counts 1/2/3/7, against the independent
// reference scores.
func TestPrunedRankedWithPivotsSharded(t *testing.T) {
	gs := testutil.SeededGraphs(31, 18)
	qs := testutil.SeededQueries(131, gs, 2)
	eval := measure.Options{GEDMaxNodes: 500, MCSMaxNodes: 500}
	ctx := context.Background()
	for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
		for _, q := range qs {
			scores := testutil.ReferenceScores(gs, q, m, eval)
			refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
			popts := gdb.QueryOptions{Eval: eval, Workers: 4}
			for _, counts := range []int{1, 2, 3, 7} {
				sh := testutil.NewSharded(t, counts, gs)
				sh.EnablePivots(pivot.Config{Pivots: 3})
				sh.EnableScoreMemo(4096)
				sh.WaitPivots()
				label := fmt.Sprintf("%s/%s shards=%d", q.Name(), m.Name(), counts)
				for round := 0; round < 2; round++ {
					tk, err := sh.TopKQuery(ctx, q, m, 4, popts)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameItems(t, label+"/topk", refTK, tk.Items)
					rg, err := sh.RangeQuery(ctx, q, m, 4, popts)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameItems(t, label+"/range", refRG, rg.Items)
				}
			}
		}
	}
}

// TestPivotSurvivesMutations: inserts and deletes (including deleting a
// pivot) keep the background index consistent and the answers correct.
func TestPivotSurvivesMutations(t *testing.T) {
	gs := testutil.SeededGraphs(51, 16)
	db := pivotDB(t, gs, pivot.Config{Pivots: 3}, false)
	ix := db.Shard(0).PivotIndex()
	q := testutil.SeededQueries(151, gs, 1)[0]
	opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 1000, MCSMaxNodes: 1000}}

	// Delete a pivot (forces a rebuild) and a regular member.
	victim := ix.Pivots()[0]
	for _, name := range []string{victim, gs[7].Name()} {
		if ack, err := db.Delete(name, ""); !ack.Existed || err != nil {
			t.Fatalf("delete %s failed: ack %+v, err %v", name, ack, err)
		}
	}
	extra := testutil.SeededGraphs(251, 4)
	for _, g := range extra {
		g.SetName("x" + g.Name())
		if _, err := db.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	ix.Wait()
	_, entries, pending := ix.Ready()
	if entries != db.Len() || pending != 0 {
		t.Fatalf("after mutations: %d graphs, %d columns, %d pending", db.Len(), entries, pending)
	}

	ref := testutil.NewSharded(t, 1, db.Graphs())
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
