package gdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
	"skygraph/internal/testutil"
	"skygraph/internal/vector"
)

// vCfg is the test vector configuration: few cells so the partition
// builds even on small seeded collections.
var vCfg = vector.Config{Dims: 16, Cells: 4}

// TestVectorRankedEquivalence: top-k and range answers with the vector
// tier live must be byte-identical to the independent reference AND to the
// ranked scan of the same collection built without the tier (the "off"
// arm), across the library's whole configuration matrix — paper and
// seeded data, shard counts 1/2/3/7, capped and uncapped engines, with
// and without the pivot tier and the score memo.
func TestVectorRankedEquivalence(t *testing.T) {
	cases := []struct {
		label string
		gs    []*graph.Graph
		qs    []*graph.Graph
	}{
		{"paper", dataset.PaperDB(), []*graph.Graph{dataset.PaperQuery()}},
		{"seeded", testutil.SeededGraphs(61, 18), testutil.SeededQueries(161, testutil.SeededGraphs(61, 18), 2)},
	}
	evals := []measure.Options{{}, {GEDMaxNodes: 200, MCSMaxNodes: 200}}
	ctx := context.Background()
	for _, tc := range cases {
		for _, withPivots := range []bool{false, true} {
			for _, withMemo := range []bool{false, true} {
				for _, eval := range evals {
					for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
						for _, q := range tc.qs {
							scores := testutil.ReferenceScores(tc.gs, q, m, eval)
							refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
							build := func(shards int, withVector bool) *gdb.Sharded {
								sh := testutil.NewSharded(t, shards, tc.gs)
								if withPivots {
									sh.EnablePivots(pivot.Config{Pivots: 3})
									sh.WaitPivots()
								}
								if withMemo {
									sh.EnableScoreMemo(4096)
								}
								if withVector {
									sh.EnableVector(vCfg)
								}
								return sh
							}
							for _, shards := range []int{1, 2, 3, 7} {
								sh := build(shards, true)
								label := fmt.Sprintf("%s/%s/%s shards=%d pivots=%v memo=%v eval=%v",
									tc.label, q.Name(), m.Name(), shards, withPivots, withMemo, eval.GEDMaxNodes)
								popts := gdb.QueryOptions{Eval: eval, Workers: 4}
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
								// The same collection without the tier must
								// also match, and report no vector work.
								ntk, err := build(shards, false).TopKQuery(ctx, q, m, 4, popts)
								if err != nil {
									t.Fatal(err)
								}
								testutil.RequireSameItems(t, label+"/topk-untiered", refTK, ntk.Items)
								if ntk.Stats.VectorCells != 0 || ntk.Stats.VectorSkipped != 0 {
									t.Fatalf("%s: collection without the tier reported vector work: %+v", label, ntk.Stats)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorSkylineEquivalence: an attached vector index must leave
// pruned skyline answers alone — they match the unpruned reference
// across shard counts, with and without pivots.
func TestVectorSkylineEquivalence(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewSharded(t, 1, gs)
		for _, withPivots := range []bool{false, true} {
			for qi, q := range testutil.SeededQueries(seed+100, gs, 2) {
				opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 2000, MCSMaxNodes: 2000}}
				want, err := ref.SkylineQuery(context.Background(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2, 3, 7} {
					sh := testutil.NewSharded(t, shards, gs)
					if withPivots {
						sh.EnablePivots(pivot.Config{Pivots: 3})
						sh.WaitPivots()
					}
					sh.EnableVector(vCfg)
					label := fmt.Sprintf("seed=%d q=%d shards=%d pivots=%v", seed, qi, shards, withPivots)
					popts := opts
					popts.Prune = true
					got, err := sh.SkylineQuery(context.Background(), q, popts)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameSkyline(t, label, want.Skyline, got.Skyline)
					if got.Stats.Evaluated+got.Stats.Pruned != len(gs) {
						t.Fatalf("%s: evaluated %d + pruned %d != %d",
							label, got.Stats.Evaluated, got.Stats.Pruned, len(gs))
					}
				}
			}
		}
	}
}

// TestVectorSurvivesMutations: inserts and deletes keep the embeddings,
// the generation tags and the answers consistent — the synchronous
// Add/Remove hooks must track the database exactly.
func TestVectorSurvivesMutations(t *testing.T) {
	gs := testutil.SeededGraphs(81, 16)
	db := testutil.NewSharded(t, 1, gs)
	db.EnablePivots(pivot.Config{Pivots: 3})
	db.WaitPivots()
	db.EnableVector(vCfg)
	vix := db.Shard(0).VectorIndex()
	q := testutil.SeededQueries(181, gs, 1)[0]
	eval := measure.Options{GEDMaxNodes: 1000, MCSMaxNodes: 1000}

	for _, name := range []string{gs[0].Name(), gs[9].Name()} {
		if ack, err := db.Delete(name, ""); !ack.Existed || err != nil {
			t.Fatalf("delete %s: ack %+v, err %v", name, ack, err)
		}
	}
	extra := testutil.SeededGraphs(281, 6)
	for _, g := range extra {
		g.SetName("x" + g.Name())
		if _, err := db.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitPivots()
	if p := vix.Snapshot(); p == nil || p.Gen != db.Generation() || p.N != db.Len() {
		t.Fatalf("partition out of sync after mutations: %+v vs gen=%d len=%d", p, db.Generation(), db.Len())
	}

	ref := testutil.NewSharded(t, 1, db.Graphs())
	wantTK, err := ref.TopKQuery(context.Background(), q, measure.DistEd{}, 4, gdb.QueryOptions{Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	gotTK, err := db.TopKQuery(context.Background(), q, measure.DistEd{}, 4, gdb.QueryOptions{Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameItems(t, "after-mutations/topk", wantTK.Items, gotTK.Items)
	if gotTK.Stats.VectorFallbacks != 0 {
		t.Fatalf("synchronous hooks should never desync: %d fallbacks", gotTK.Stats.VectorFallbacks)
	}
	want, err := ref.SkylineQuery(context.Background(), q, gdb.QueryOptions{Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{Eval: eval, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameSkyline(t, "after-mutations/skyline", want.Skyline, got.Skyline)
}

// TestVectorCellSkipHappens: on clustered data with the pivot tier
// live, a top-k query from inside one cluster must actually skip
// candidates wholesale — the counter that proves the tier earns its
// keep (equivalence is covered above; this guards the mechanism
// against silent regression to always-probe-everything).
func TestVectorCellSkipHappens(t *testing.T) {
	gs := dataset.RewiredClusters(8, 16, 6, 7, 5, 901)
	db := testutil.NewSharded(t, 1, gs)
	db.EnablePivots(pivot.Config{Pivots: 8, QueryMaxNodes: -1})
	db.WaitPivots()
	db.EnableVector(vector.Config{Dims: 16, Cells: 8})
	q := graph.Rewire(gs[0], 1, rand.New(rand.NewSource(902)))
	q.SetName("q")
	res, err := db.TopKQuery(context.Background(), q, measure.DistEd{}, 3, gdb.QueryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VectorSkipped == 0 {
		t.Fatalf("no candidates skipped on clustered data: %+v", res.Stats)
	}
	ref, err := testutil.NewSharded(t, 1, gs).TopKQuery(context.Background(), q, measure.DistEd{}, 3, gdb.QueryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireSameItems(t, "clustered", ref.Items, res.Items)
}
