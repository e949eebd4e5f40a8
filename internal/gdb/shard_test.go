package gdb_test

import (
	"context"
	"reflect"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

func TestShardedRoutingAndOrder(t *testing.T) {
	gs := testutil.SeededGraphs(1, 10)
	sh := testutil.NewSharded(t, 3, gs)
	if sh.Len() != 10 {
		t.Fatalf("len = %d; want 10", sh.Len())
	}
	perShard := 0
	for i := 0; i < sh.NumShards(); i++ {
		perShard += sh.Shard(i).Len()
	}
	if perShard != 10 {
		t.Fatalf("shard occupancy sums to %d; want 10", perShard)
	}
	for _, g := range gs {
		own := sh.ShardFor(g.Name())
		if _, ok := sh.Shard(own).Get(g.Name()); !ok {
			t.Fatalf("graph %s not in its owning shard %d", g.Name(), own)
		}
		if got, ok := sh.Get(g.Name()); !ok || got != g {
			t.Fatalf("Get(%s) = %v, %v", g.Name(), got, ok)
		}
	}
	// Global insertion order is preserved.
	names := sh.Names()
	for i, g := range gs {
		if names[i] != g.Name() {
			t.Fatalf("names[%d] = %s; want %s", i, names[i], g.Name())
		}
	}
	// Duplicate insert is rejected (global uniqueness via stable routing).
	if _, err := sh.Insert(gs[0], ""); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
}

func TestShardedPerShardGenerations(t *testing.T) {
	gs := testutil.SeededGraphs(2, 8)
	sh := testutil.NewSharded(t, 4, gs)
	before := sh.Generations()
	victim := gs[3].Name()
	own := sh.ShardFor(victim)
	if ack, err := sh.Delete(victim, ""); !ack.Existed || ack.Shard != own || err != nil {
		t.Fatalf("delete %s failed: ack %+v, err %v", victim, ack, err)
	}
	after := sh.Generations()
	for i := range before {
		want := before[i]
		if i == own {
			want++
		}
		if after[i] != want {
			t.Fatalf("shard %d generation %d -> %d; want %d (only shard %d mutates)",
				i, before[i], after[i], want, own)
		}
	}
	if sh.Len() != 7 {
		t.Fatalf("len after delete = %d; want 7", sh.Len())
	}
	// The deleted name drops out of the global order; the rest keep
	// their relative order (seeded names increase lexicographically).
	names := sh.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("order corrupted after delete: %v", names)
		}
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	gs := testutil.SeededGraphs(3, 9)
	flat := testutil.NewSharded(t, 1, gs)
	sh := testutil.NewSharded(t, 3, gs)
	if got, want := sh.Stats(), flat.Stats(); got != want {
		t.Fatalf("3-shard stats %+v != 1-shard stats %+v", got, want)
	}
}

func TestShardedEmptyDB(t *testing.T) {
	sh := gdb.NewSharded(3)
	res, err := sh.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 0 || len(res.All) != 0 {
		t.Fatalf("empty sharded db answered %+v", res)
	}
}

// equivCase is one query to check across shard counts.
type equivCase struct {
	q      *graph.Graph
	k      int
	radius float64
}

// requireShardedMatchesUnsharded asserts that for every shard count in
// counts, the engine's skyline, full table, top-k and range answers
// over gs are byte-identical (reflect.DeepEqual, order included) to the
// independent reference computed straight from Definitions 11–12 — and
// so to each other. Top-k and range come from the ranked scan, the
// skyline and table from both the table merges and SkylineQuery.
func requireShardedMatchesUnsharded(t *testing.T, gs []*graph.Graph, cases []equivCase, eval measure.Options, counts []int) {
	t.Helper()
	ctx := context.Background()
	opts := gdb.QueryOptions{Eval: eval, Workers: 4}
	m := measure.DistEd{}
	for ci, c := range cases {
		refPoints := testutil.ReferenceTable(gs, c.q, eval)
		refSky := testutil.ReferenceSkyline(gs, c.q, eval)
		scores := testutil.ReferenceScores(gs, c.q, m, eval)
		refTopK, refRange := testutil.ReferenceTopK(scores, c.k), testutil.ReferenceRange(scores, c.radius)
		for _, n := range counts {
			sh := testutil.NewSharded(t, n, gs)
			tab, err := sh.VectorTable(ctx, c.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := c.q.Name()
			if label == "" {
				label = "case"
			}
			label = label + "/" + "shards"

			if got := sh.TableRows(tab); !reflect.DeepEqual(got, refPoints) {
				t.Fatalf("case %d, %d shards: table rows differ:\n got %v\nwant %v", ci, n, got, refPoints)
			}
			gotSky := sh.TableSkyline(tab, nil)
			testutil.RequireSameSkyline(t, label, refSky, gotSky)
			if !reflect.DeepEqual(gotSky, refSky) {
				t.Fatalf("case %d, %d shards: skyline order differs:\n got %v\nwant %v", ci, n, gotSky, refSky)
			}
			// The convenience wrapper agrees with the explicit
			// table-and-read path.
			skyRes, err := sh.SkylineQuery(ctx, c.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(skyRes.Skyline, refSky) || !reflect.DeepEqual(skyRes.All, refPoints) {
				t.Fatalf("case %d, %d shards: SkylineQuery differs from reference", ci, n)
			}
			tkRes, err := sh.TopKQuery(ctx, c.q, m, c.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label+"/topk", refTopK, tkRes.Items)
			rgRes, err := sh.RangeQuery(ctx, c.q, m, c.radius, opts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameItems(t, label+"/range", refRange, rgRes.Items)
		}
	}
}

// TestShardedMatchesUnshardedPaper is the acceptance check on the paper
// dataset: for every shard count, merged skyline / top-k / range
// answers are byte-identical to the reference's.
func TestShardedMatchesUnshardedPaper(t *testing.T) {
	requireShardedMatchesUnsharded(t, dataset.PaperDB(),
		[]equivCase{{q: dataset.PaperQuery(), k: 3, radius: 3}},
		measure.Options{}, []int{1, 2, 3, 7})
}

// TestShardedMatchesUnshardedSeeded is the property test: seeded random
// databases and mutated queries, shard counts 1/2/3/7 — results must be
// identical to the reference, including order. Budgeted engines keep
// the worst pairs cheap; both sides run the identical computation, so
// equivalence is unaffected.
func TestShardedMatchesUnshardedSeeded(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		gs := testutil.SeededGraphs(seed, 12)
		qs := testutil.SeededQueries(seed+100, gs, 2)
		cases := make([]equivCase, len(qs))
		for i, q := range qs {
			cases[i] = equivCase{q: q, k: 4, radius: 5}
		}
		requireShardedMatchesUnsharded(t, gs, cases,
			measure.Options{GEDMaxNodes: 20000, MCSMaxNodes: 20000}, []int{1, 2, 3, 7})
	}
}

// TestScanWorkIsShardInvariant: shards are storage only, so a query's
// one scan does the same work at every shard count. With the memo off
// and one worker the scan order is fixed — ties broken by insert
// sequence, not by where a graph is stored — so the pruned skyline's
// Work and kept rows, and the top-k and range scans' Work, must be
// equal at 1, 2, 3 and 7 shards.
func TestScanWorkIsShardInvariant(t *testing.T) {
	gs := dataset.MoleculeDB(200, 6, 6, 1)
	queries := dataset.NoisyQueries(gs, 16, 2, 3)
	ctx := context.Background()
	opts := gdb.QueryOptions{Workers: 1}
	pruned := gdb.QueryOptions{Workers: 1, Prune: true}
	m := measure.DistEd{}
	type work struct {
		sky, topk, rng gdb.Work
		kept           []string
	}
	var want []work
	var spared int
	for _, n := range []int{1, 2, 3, 7} {
		sh := testutil.NewSharded(t, n, gs)
		for qi, q := range queries {
			sky, err := sh.SkylineQuery(ctx, q, pruned)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := sh.TopKQuery(ctx, q, m, 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := sh.RangeQuery(ctx, q, m, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := work{sky: sky.Stats.Work, topk: tk.Stats.Work, rng: rg.Stats.Work}
			for _, p := range sky.All {
				got.kept = append(got.kept, p.ID)
			}
			if n == 1 {
				want = append(want, got)
				spared += min(got.sky.Pruned, got.topk.Pruned, got.rng.Pruned)
				continue
			}
			if !reflect.DeepEqual(got, want[qi]) {
				t.Fatalf("q%d at %d shards: work %+v; at 1 shard %+v", qi, n, got, want[qi])
			}
		}
	}
	if spared == 0 {
		t.Fatal("fixture: no query pruned on all three paths, so the scan order was never tested")
	}
}
