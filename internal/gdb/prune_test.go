package gdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/skyline"
	"skygraph/internal/testutil"
)

// requireEquivalent runs the same skyline query pruned and unpruned
// against db and fails unless the skylines agree exactly. It also
// checks the pruning bookkeeping: every graph is either evaluated or
// pruned, never both, never neither.
func requireEquivalent(t *testing.T, label string, db *gdb.DB, q *graph.Graph, opts gdb.QueryOptions) {
	t.Helper()
	o := opts
	o.Prune = false
	ref, err := db.SkylineQuery(context.Background(), q, o)
	if err != nil {
		t.Fatalf("%s: unpruned query: %v", label, err)
	}
	o.Prune = true
	got, err := db.SkylineQuery(context.Background(), q, o)
	if err != nil {
		t.Fatalf("%s: pruned query: %v", label, err)
	}
	testutil.RequireSameSkyline(t, label, ref.Skyline, got.Skyline)
	if got.Stats.Evaluated+got.Stats.Pruned != db.Len() {
		t.Fatalf("%s: evaluated %d + pruned %d != %d graphs",
			label, got.Stats.Evaluated, got.Stats.Pruned, db.Len())
	}
	if ref.Stats.Pruned != 0 || ref.Stats.Evaluated != db.Len() {
		t.Fatalf("%s: unpruned run reported pruning: %+v", label, ref.Stats)
	}
}

// TestPrunedSkylineMatchesUnprunedPaperDB: the worked example of the
// paper, exact engines — GSS(D,q) = {g1, g4, g5, g7} either way.
func TestPrunedSkylineMatchesUnprunedPaperDB(t *testing.T) {
	db := testutil.NewDB(t, dataset.PaperDB())
	requireEquivalent(t, "paper", db, dataset.PaperQuery(), gdb.QueryOptions{})
}

// TestPrunedSkylineMatchesUnprunedSeeded: property test over seeded
// random databases and queries.
func TestPrunedSkylineMatchesUnprunedSeeded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gs := testutil.SeededGraphs(seed, 24)
		db := testutil.NewDB(t, gs)
		for qi, q := range testutil.SeededQueries(seed+100, gs, 4) {
			requireEquivalent(t, fmt.Sprintf("seed=%d q=%d", seed, qi), db, q, gdb.QueryOptions{})
		}
	}
}

// requirePrunedEquivalent is the equivalence grid: the pruned engine
// must agree with the unpruned run, and its Pruned/Evaluated accounting
// must cover the database.
func requirePrunedEquivalent(t *testing.T, name string, gs, queries []*graph.Graph, opts gdb.QueryOptions) {
	t.Helper()
	db := testutil.NewDB(t, gs)
	opts.Prune = false
	want := make([]gdb.SkylineResult, len(queries))
	for qi, q := range queries {
		var err error
		if want[qi], err = db.SkylineQuery(context.Background(), q, opts); err != nil {
			t.Fatalf("%s q=%d: reference: %v", name, qi, err)
		}
	}
	opts.Prune = true
	for qi, q := range queries {
		label := fmt.Sprintf("%s q=%d", name, qi)
		got, err := db.SkylineQuery(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("%s: pruned: %v", label, err)
		}
		testutil.RequireSameSkyline(t, label, want[qi].Skyline, got.Skyline)
		if got.Stats.Evaluated+got.Stats.Pruned != len(gs) {
			t.Fatalf("%s: evaluated %d + pruned %d != %d graphs",
				label, got.Stats.Evaluated, got.Stats.Pruned, len(gs))
		}
	}
}

// TestPrunedSkylineSeededGrid: the grid over a seeded database.
func TestPrunedSkylineSeededGrid(t *testing.T) {
	gs := testutil.SeededGraphs(11, 30)
	requirePrunedEquivalent(t, "seeded", gs, testutil.SeededQueries(211, gs, 3), gdb.QueryOptions{})
}

// twinned returns gs with every graph also stored as a renamed clone.
func twinned(gs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, 0, 2*len(gs))
	for _, g := range gs {
		twin := g.Clone()
		twin.SetName(g.Name() + "twin")
		out = append(out, g, twin)
	}
	return out
}

// TestPrunedSkylineTwins: the grid over a database of twin pairs, with
// two stored graphs among the queries (their skyline is exactly the
// twin pair at distance zero). Twins have equal vectors, and equal
// vectors do not dominate each other: a non-strict comparison anywhere
// in the scan — the front test, the dominance-limit search — drops one
// of a pair.
func TestPrunedSkylineTwins(t *testing.T) {
	base := testutil.SeededGraphs(5, 20)
	gs := twinned(base)
	queries := append(testutil.SeededQueries(105, base, 3), base[3], base[14])
	requirePrunedEquivalent(t, "twins", gs, queries, gdb.QueryOptions{})
}

// TestSkylineScanOrderIndependent drives the scan's per-candidate step
// directly, over seeded random permutations of the survivor order (and
// the exact reverse of the best-first order, the most adversarial one):
// exclusion always carries a proof against an exact vector, so whatever
// the order, the table's skyline is the unpruned one. The scan itself
// is deterministic, counters included.
func TestSkylineScanOrderIndependent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gs := testutil.SeededGraphs(seed, 24)
		if seed == 3 {
			gs = twinned(gs[:12])
		}
		db := testutil.NewDB(t, gs)
		rng := rand.New(rand.NewSource(seed))
		for qi, q := range testutil.SeededQueries(seed+100, gs, 2) {
			want, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for perm := 0; perm <= 20; perm++ {
				pts := gdb.PrunedPointsInOrder(db, q, gdb.QueryOptions{Prune: true}, func(order []int) {
					if perm == 0 {
						for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
							order[a], order[b] = order[b], order[a]
						}
						return
					}
					rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				})
				label := fmt.Sprintf("seed=%d q=%d perm=%d", seed, qi, perm)
				testutil.RequireSameSkyline(t, label, want.Skyline, skyline.SFS(pts))
			}
			opts := gdb.QueryOptions{Prune: true}
			first, err := db.SkylineQuery(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := db.SkylineQuery(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first.Stats.Work != again.Stats.Work {
				t.Fatalf("seed=%d q=%d: one-worker scan counters differ between runs: %+v vs %+v",
					seed, qi, first.Stats.Work, again.Stats.Work)
			}
		}
	}
}

// TestPrunedPaperDBActuallyPrunes: on the paper database the filter
// must spare at least one exact evaluation (the worked example has
// clearly dominated members), so the Pruned counter is exercised for
// real, not vacuously.
func TestPrunedPaperDBActuallyPrunes(t *testing.T) {
	db := testutil.NewDB(t, dataset.PaperDB())
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned == 0 {
		t.Skip("bounds too loose to prune the paper DB (allowed, but unexpected)")
	}
	if len(res.All) != res.Stats.Evaluated {
		t.Fatalf("All holds %d rows, Evaluated=%d", len(res.All), res.Stats.Evaluated)
	}
}
