package gdb_test

// The tests in this file keep the names they had when they also ran the
// pivot or vector candidate tier. Both tiers are gone; each test now
// checks the tier-free scans on the same data, shard counts and options.

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

// TestPrunedSkylineWithPivotsSeeded: the pruned skyline with the score
// memo live stays byte-identical to the unpruned reference, on the
// first (cold memo) and second (warm memo) run alike, and the warm run
// replays.
func TestPrunedSkylineWithPivotsSeeded(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewSharded(t, 1, gs)
		db := testutil.NewSharded(t, 1, gs)
		db.EnableScoreMemo(4096)
		for qi, q := range testutil.SeededQueries(seed+100, gs, 3) {
			label := fmt.Sprintf("seed=%d q=%d", seed, qi)
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
				requireCovers(t, label, got.Stats, len(gs))
				if round == 1 && got.Stats.MemoHits == 0 {
					t.Fatalf("%s: warm rerun hit the memo 0 times", label)
				}
			}
		}
	}
}

// TestPrunedRankedWithPivotsSharded: top-k and range answers with the
// score memo at shard counts 1/2/3/7 and four workers equal the
// independent reference, on the cold run and on the rerun that replays
// the memo.
func TestPrunedRankedWithPivotsSharded(t *testing.T) {
	gs := testutil.SeededGraphs(31, 18)
	qs := testutil.SeededQueries(131, gs, 2)
	eval := measure.Options{GEDMaxNodes: 500, MCSMaxNodes: 500}
	ctx := context.Background()
	for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
		for _, q := range qs {
			scores := testutil.ReferenceScores(gs, q, m, eval)
			refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
			opts := gdb.QueryOptions{Eval: eval, Workers: 4}
			for _, counts := range []int{1, 2, 3, 7} {
				sh := testutil.NewSharded(t, counts, gs)
				sh.EnableScoreMemo(4096)
				label := fmt.Sprintf("%s/%s shards=%d", q.Name(), m.Name(), counts)
				for round := 0; round < 2; round++ {
					tk, err := sh.TopKQuery(ctx, q, m, 4, opts)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameItems(t, label+"/topk", refTK, tk.Items)
					rg, err := sh.RangeQuery(ctx, q, m, 4, opts)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameItems(t, label+"/range", refRG, rg.Items)
				}
			}
		}
	}
}

// TestVectorRankedEquivalence: top-k and range answers on the paper and
// seeded collections equal the independent reference at shard counts
// 1/2/3/7, with capped and uncapped engines, with and without the score
// memo, and a four-worker scan answers exactly as a one-worker scan.
func TestVectorRankedEquivalence(t *testing.T) {
	seeded := testutil.SeededGraphs(61, 18)
	cases := []struct {
		label string
		gs    []*graph.Graph
		qs    []*graph.Graph
	}{
		{"paper", dataset.PaperDB(), []*graph.Graph{dataset.PaperQuery()}},
		{"seeded", seeded, testutil.SeededQueries(161, seeded, 2)},
	}
	evals := []measure.Options{{}, {GEDMaxNodes: 200, MCSMaxNodes: 200}}
	ctx := context.Background()
	for _, tc := range cases {
		for _, withMemo := range []bool{false, true} {
			for _, eval := range evals {
				for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
					for _, q := range tc.qs {
						scores := testutil.ReferenceScores(tc.gs, q, m, eval)
						refTK, refRG := testutil.ReferenceTopK(scores, 4), testutil.ReferenceRange(scores, 4)
						for _, shards := range []int{1, 2, 3, 7} {
							sh := testutil.NewSharded(t, shards, tc.gs)
							if withMemo {
								sh.EnableScoreMemo(4096)
							}
							label := fmt.Sprintf("%s/%s/%s shards=%d memo=%v eval=%v",
								tc.label, q.Name(), m.Name(), shards, withMemo, eval.GEDMaxNodes)
							for _, workers := range []int{4, 1} {
								opts := gdb.QueryOptions{Eval: eval, Workers: workers}
								tk, err := sh.TopKQuery(ctx, q, m, 4, opts)
								if err != nil {
									t.Fatal(err)
								}
								testutil.RequireSameItems(t, fmt.Sprintf("%s workers=%d/topk", label, workers), refTK, tk.Items)
								rg, err := sh.RangeQuery(ctx, q, m, 4, opts)
								if err != nil {
									t.Fatal(err)
								}
								testutil.RequireSameItems(t, fmt.Sprintf("%s workers=%d/range", label, workers), refRG, rg.Items)
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorSkylineEquivalence: pruned skyline answers match the
// unpruned reference across shard counts, and every graph is either
// scored or pruned.
func TestVectorSkylineEquivalence(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		gs := testutil.SeededGraphs(seed, 20)
		ref := testutil.NewSharded(t, 1, gs)
		for qi, q := range testutil.SeededQueries(seed+100, gs, 2) {
			opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 2000, MCSMaxNodes: 2000}}
			want, err := ref.SkylineQuery(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 7} {
				sh := testutil.NewSharded(t, shards, gs)
				label := fmt.Sprintf("seed=%d q=%d shards=%d", seed, qi, shards)
				popts := opts
				popts.Prune = true
				got, err := sh.SkylineQuery(context.Background(), q, popts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSkyline(t, label, want.Skyline, got.Skyline)
				requireCovers(t, label, got.Stats, len(gs))
			}
		}
	}
}

// TestPivotSurvivesMutations: after deletes and inserts, the pruned
// skyline of the mutated database equals the reference over the graphs
// it now holds.
func TestPivotSurvivesMutations(t *testing.T) {
	gs := testutil.SeededGraphs(51, 16)
	db := testutil.NewSharded(t, 1, gs)
	q := testutil.SeededQueries(151, gs, 1)[0]
	opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 1000, MCSMaxNodes: 1000}}

	mutate(t, db, []string{gs[0].Name(), gs[7].Name()}, testutil.SeededGraphs(251, 4))

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

// TestVectorSurvivesMutations: after deletes and inserts, the top-k
// answer and the pruned skyline of the mutated database equal those of
// a database built fresh from the graphs it now holds.
func TestVectorSurvivesMutations(t *testing.T) {
	gs := testutil.SeededGraphs(81, 16)
	db := testutil.NewSharded(t, 1, gs)
	q := testutil.SeededQueries(181, gs, 1)[0]
	eval := measure.Options{GEDMaxNodes: 1000, MCSMaxNodes: 1000}

	mutate(t, db, []string{gs[0].Name(), gs[9].Name()}, testutil.SeededGraphs(281, 6))
	if db.Len() != len(gs)-2+6 {
		t.Fatalf("after mutations: %d graphs, want %d", db.Len(), len(gs)-2+6)
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

// mutate deletes the named graphs from db and inserts extra under
// fresh "x"-prefixed names.
func mutate(t *testing.T, db *gdb.Sharded, victims []string, extra []*graph.Graph) {
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
