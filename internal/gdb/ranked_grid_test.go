package gdb_test

import (
	"context"
	"fmt"
	"math/rand"
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
// across the ranked scan's whole configuration matrix: k of 1, 5 and
// the whole collection, and radii read off the reference scores so that
// some graphs sit exactly on the radius. The collections are the
// harness's cold-ranked shape (order-5 families of 2-edit mutations,
// 1-edit queries) and rewired clusters at orders where a rewire really
// moves edges, so label histograms cannot tell cluster mates apart and
// tier 1 and the engines decide.
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
		sh := testutil.NewDB(t, tc.gs)
		for _, m := range []measure.Measure{measure.DistEd, measure.DistGu} {
			for _, q := range tc.qs {
				scores := testutil.ReferenceScores(tc.gs, q, m)
				label := fmt.Sprintf("%s/%s/%s", tc.label, q.Name(), m.Name())
				for _, k := range []int{1, 5, n} {
					got, err := sh.TopKQuery(ctx, q, m, k, gdb.QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameItems(t, fmt.Sprintf("%s topk k=%d", label, k), testutil.ReferenceTopK(scores, k), got.Items)
					requireCovers(t, label, got.Stats, n)
				}
				for _, radius := range tieRadii(scores) {
					got, err := sh.RangeQuery(ctx, q, m, radius, gdb.QueryOptions{})
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

// TestRankedScanOrderIndependent drives the ranked scan's per-candidate
// step directly: every candidate admitted under the seeded floor is
// settled, the stop ignored, over seeded random permutations of the
// claim order (and its exact reverse, the most adversarial one).
// Exclusion always carries a proof against a threshold no lower than
// the final one, so whatever the order, each top-k and range answer is
// the sequential scan's, which is the reference's. The collections are
// seeded molecules, a twinned one (equal scores tie at every k and
// radius) and a noisy family, where tier 1 and decision runs decide
// most candidates.
func TestRankedScanOrderIndependent(t *testing.T) {
	family, familyQs := testutil.NoisyFamily(24)
	type collection struct {
		label  string
		gs, qs []*graph.Graph
	}
	cases := []collection{{"family", family, familyQs[:2]}}
	for _, seed := range []int64{1, 2, 3} {
		gs := testutil.SeededGraphs(seed, 24)
		if seed == 3 {
			gs = twinned(gs[:12])
		}
		cases = append(cases, collection{fmt.Sprintf("seed=%d", seed), gs, testutil.SeededQueries(seed+100, gs, 2)})
	}
	// query is one ranked query (top-k for k >= 1, else range at
	// radius) with its sequential answer.
	type query struct {
		k      int
		radius float64
		want   []topk.Item
	}
	ctx := context.Background()
	opts := gdb.QueryOptions{}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		db := testutil.NewDB(t, tc.gs)
		for qi, q := range tc.qs {
			for _, m := range []measure.Measure{measure.DistEd, measure.DistGu} {
				scores := testutil.ReferenceScores(tc.gs, q, m)
				var queries []query
				for _, k := range []int{1, 5} {
					res, err := db.TopKQuery(ctx, q, m, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s q=%d %s topk k=%d", tc.label, qi, m.Name(), k)
					testutil.RequireSameItems(t, label, testutil.ReferenceTopK(scores, k), res.Items)
					queries = append(queries, query{k: k, want: res.Items})
				}
				for _, radius := range tieRadii(scores) {
					res, err := db.RangeQuery(ctx, q, m, radius, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s q=%d %s range r=%g", tc.label, qi, m.Name(), radius)
					testutil.RequireSameItems(t, label, testutil.ReferenceRange(scores, radius), res.Items)
					queries = append(queries, query{radius: radius, want: res.Items})
				}
				for _, qu := range queries {
					for perm := 0; perm <= 12; perm++ {
						got := gdb.RankedItemsInOrder(db, q, m, qu.k, qu.radius, opts, func(order []int) {
							if perm == 0 {
								slices.Reverse(order)
								return
							}
							rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
						})
						label := fmt.Sprintf("%s q=%d %s k=%d r=%g perm=%d", tc.label, qi, m.Name(), qu.k, qu.radius, perm)
						testutil.RequireSameItems(t, label, qu.want, got)
					}
				}
			}
		}
	}
}
