package gdb_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
	"skygraph/internal/topk"
)

// TestRankedEquivalenceGrid: best-first top-k and range answers are
// byte-identical — scores and tie-order — to the independent reference
// across the ranked scan's whole configuration matrix: shard counts
// 1/2/3/7, one worker and four, with and without the score memo,
// capped and uncapped engines, k of 1, 5 and the whole collection, and
// radii read off the reference scores so that some graphs sit exactly
// on the radius. The collections are the harness's cold-ranked shape
// (order-5 families of 2-edit mutations, 1-edit queries) and rewired
// clusters at orders where a rewire really moves edges, so label
// histograms cannot tell cluster mates apart and tier 1 and the engines
// decide. With four workers the claim loop runs concurrently against a
// threshold every shard shares, so under -race this grid is the
// detector of a race there.
func TestRankedEquivalenceGrid(t *testing.T) {
	clustered := dataset.NoisyQueries(dataset.MoleculeDB(3, 5, 5, 41), 60, 2, 43)
	for i, g := range clustered {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	rewired := dataset.RewiredClusters(4, 8, 7, 8, 3, 47)
	cases := []struct {
		label string
		gs    []*graph.Graph
		qs    []*graph.Graph
	}{
		{"clustered", clustered, dataset.NoisyQueries(clustered, 2, 1, 45)},
		{"rewired", rewired, dataset.NoisyQueries(rewired, 2, 1, 49)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		n := len(tc.gs)
		var dbs []*gdb.Sharded
		var dbLabels []string
		for _, shards := range []int{1, 2, 3, 7} {
			for _, memo := range []bool{false, true} {
				sh := testutil.NewSharded(t, shards, tc.gs)
				if memo {
					sh.EnableScoreMemo(4096)
				}
				dbs = append(dbs, sh)
				dbLabels = append(dbLabels, fmt.Sprintf("shards=%d memo=%v", shards, memo))
			}
		}
		for _, eval := range []measure.Options{{}, {GEDMaxNodes: 200, MCSMaxNodes: 200}} {
			for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
				for _, q := range tc.qs {
					scores := testutil.ReferenceScores(tc.gs, q, m, eval)
					for d, sh := range dbs {
						for _, workers := range []int{1, 4} {
							label := fmt.Sprintf("%s/%s/%s eval=%d %s workers=%d",
								tc.label, q.Name(), m.Name(), eval.GEDMaxNodes, dbLabels[d], workers)
							opts := gdb.QueryOptions{Eval: eval, Workers: workers}
							for _, k := range []int{1, 5, n} {
								got, err := sh.TopKQuery(ctx, q, m, k, opts)
								if err != nil {
									t.Fatal(err)
								}
								testutil.RequireSameItems(t, fmt.Sprintf("%s topk k=%d", label, k), testutil.ReferenceTopK(scores, k), got.Items)
								requireCovers(t, label, got.Stats, n)
							}
							for _, radius := range tieRadii(scores) {
								got, err := sh.RangeQuery(ctx, q, m, radius, opts)
								if err != nil {
									t.Fatal(err)
								}
								testutil.RequireSameItems(t, fmt.Sprintf("%s range r=%g", label, radius), testutil.ReferenceRange(scores, radius), got.Items)
								requireCovers(t, label, got.Stats, n)
							}
						}
					}
				}
			}
		}
	}
}

// tieRadii returns radii that land on ties: the smallest, the fifth
// smallest and the median reference score, so every range answer has
// graphs scored exactly at its radius.
func tieRadii(scores []topk.Item) []float64 {
	s := make([]float64, len(scores))
	for i, it := range scores {
		s[i] = it.Score
	}
	slices.Sort(s)
	return []float64{s[0], s[min(4, len(s)-1)], s[len(s)/2]}
}

// requireCovers: every graph of the collection is either scored or
// pruned, exactly once.
func requireCovers(t *testing.T, label string, st gdb.QueryStats, n int) {
	t.Helper()
	if st.Evaluated+st.Pruned != n {
		t.Fatalf("%s: evaluated %d + pruned %d != %d graphs", label, st.Evaluated, st.Pruned, n)
	}
}
