package gdb

import (
	"context"
	"fmt"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// TestRankedFatesPinned: the ranked scan is one sequential loop, so how
// every candidate left it is a fixed count per fate. On a seeded store
// of 600 graphs clustered like the harness's cold-ranked collection
// (order-5 families of 2-edit mutations), 16 top-5 and 16 range queries
// of 1-edit noise are run through the scan's own loop (rankScan.run)
// under DistEd and DistNEd, and the
// candidates are counted by fate: scored exactly, proved out by tier 1
// (the branch bound), excluded by an engine decision run, and cut off
// by the threshold. The range counts were recorded with a per-candidate
// tier 0 and a tier 1 that always solved the assignment: bounding per
// histogram class and deciding tier 1 from the row/column bound did not
// move them, and neither does queuing tier-1 survivors back by their
// raised bound, since a range threshold is fixed. The top-k counts were
// recorded with survivors queued back: 509 candidates reach the
// engines, where going straight from tier 1 to the engines sent 811
// ({411, 1072, 400, 7717}). A change to claim order or to what tier 1
// proves shows up here as a moved count.
func TestRankedFatesPinned(t *testing.T) {
	sh, qs := fateStore(t)
	// want[kind] counts {scored, tier 1, engine, cut off} over the
	// kind's 16 queries.
	for _, tc := range []struct {
		m      measure.Measure
		radius float64
		want   map[string][4]int
	}{
		{measure.DistEd, 2, map[string][4]int{
			"topk":  {308, 1374, 201, 7717},
			"range": {183, 1323, 197, 7897},
		}},
		{measure.DistNEd, 2.0 / 3, map[string][4]int{
			"topk":  {308, 1374, 201, 7717},
			"range": {183, 1323, 197, 7897},
		}},
	} {
		got := map[string][4]int{}
		for j, q := range qs {
			kind := "topk"
			var coll rankedCollector = newTopkCollector(5)
			if j%2 == 1 {
				kind, coll = "range", newRangeCollector(tc.radius)
			}
			opts := QueryOptions{}.withDefaults()
			rs, claims, _ := newRankScan(context.Background(), sh.snapshot(), q, measure.NewSignature(q), tc.m, opts, coll)
			if err := rs.run(context.Background(), claims, coll); err != nil {
				t.Fatal(err)
			}
			c := got[kind]
			for _, f := range rs.fate {
				switch f {
				case fateScored:
					c[0]++
				case fateBounded:
					c[1]++
				case fateExcluded:
					c[2]++
				default:
					c[3]++
				}
			}
			got[kind] = c
		}
		for _, kind := range []string{"topk", "range"} {
			if got[kind] != tc.want[kind] {
				t.Errorf("%s %s: fates {scored, tier 1, engine, cut off} = %v, want %v", tc.m.Name(), kind, got[kind], tc.want[kind])
			}
		}
	}
}

// fateStore is TestRankedFatesPinned's store, 600 graphs clustered like
// the harness's cold-ranked collection, with its 32 queries of 1-edit
// noise.
func fateStore(t *testing.T) (*DB, []*graph.Graph) {
	t.Helper()
	const n = 600
	gs := dataset.NoisyQueries(dataset.MoleculeDB(n/25, 5, 5, 4601), n, 2, 4603)
	for i, g := range gs {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	sh := New()
	if err := sh.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	return sh, dataset.NoisyQueries(gs, 32, 1, 4602)
}

// TestSkylineCountsPinned is TestRankedFatesPinned's skyline twin: the
// pruned skyline scan is one sequential loop, so the candidates it
// scores and prunes are a fixed count per store. The counts are summed
// over the pruned skyline queries, at default options, of the fate
// store's 32 queries and of 16 2-edit queries against 200 random
// order-6 molecules (the cold-skyline shape), recorded when the scan
// still ran on a worker pool, at one worker. A change to the scan order
// or to what a proof spares shows up here as a moved count.
func TestSkylineCountsPinned(t *testing.T) {
	clustered, clusteredQs := fateStore(t)
	molecules := New()
	gs := dataset.MoleculeDB(200, 6, 6, 4801)
	if err := molecules.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		db    *DB
		qs    []*graph.Graph
		want  Work
	}{
		{"clustered", clustered, clusteredQs, Work{Evaluated: 80, Pruned: 19120}},
		{"molecules", molecules, dataset.NoisyQueries(gs, 16, 2, 4802), Work{Evaluated: 53, Pruned: 3147}},
	} {
		var got Work
		for _, q := range tc.qs {
			res, err := tc.db.SkylineQuery(context.Background(), q, QueryOptions{Prune: true})
			if err != nil {
				t.Fatal(err)
			}
			got.Add(res.Stats.Work)
		}
		if got != tc.want {
			t.Errorf("%s: pruned skyline work %+v, want %+v", tc.label, got, tc.want)
		}
	}
}
