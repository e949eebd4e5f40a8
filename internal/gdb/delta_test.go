package gdb_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/testutil"
)

// coldTable builds the unpruned complete table for q over gs on a fresh
// database — the reference every delta patch must reproduce row for row.
func coldTable(t *testing.T, gs []*graph.Graph, q *graph.Graph) *gdb.VectorTable {
	t.Helper()
	tab, err := testutil.NewDB(t, gs).VectorTable(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDeltaPatchedTableMatchesCold: a table carried across an insert by
// DeltaRow (with no rows to dominate it, the graph is always kept) +
// WithInsert, then across a delete by WithDelete, holds
// exactly the rows — values and order — of a table cold-built over the
// mutated collection.
func TestDeltaPatchedTableMatchesCold(t *testing.T) {
	gs := testutil.SeededGraphs(31, 12)
	q := testutil.SeededQueries(131, gs, 1)[0]
	db := testutil.NewDB(t, gs)
	t0, err := db.VectorTable(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	late := testutil.SeededGraphs(231, 1)[0]
	late.SetName("late")
	ack, err := db.Insert(late, "")
	if err != nil {
		t.Fatal(err)
	}
	gen := ack.Gen
	pt, kept, got, ok := db.DeltaRow("late", q, measure.NewSignature(q), nil, gdb.QueryOptions{})
	if !ok || !kept || got != gen {
		t.Fatalf("DeltaRow ok=%v kept=%v gen=%d, want true/true/%d", ok, kept, got, gen)
	}
	t1 := t0.WithInsert(pt, gen)
	want := coldTable(t, append(append([]*graph.Graph(nil), gs...), late), q)
	if !reflect.DeepEqual(want.Points, t1.Points) {
		t.Fatalf("patched insert table differs from cold build:\ncold  %v\ndelta %v", want.Points, t1.Points)
	}
	if t1.Generation != gen || t1.Deltas != 1 {
		t.Fatalf("patched table gen=%d deltas=%d, want %d/1", t1.Generation, t1.Deltas, gen)
	}
	// The original must be untouched: patches copy, they never mutate.
	if len(t0.Points) != len(gs) || t0.Deltas != 0 {
		t.Fatalf("WithInsert mutated its receiver: %d rows, %d deltas", len(t0.Points), t0.Deltas)
	}

	victim := gs[3].Name()
	ack, err = db.Delete(victim, "")
	if err != nil || !ack.Existed {
		t.Fatalf("delete %s: ack=%+v err=%v", victim, ack, err)
	}
	gen2 := ack.Gen
	t2, ok := t1.WithDelete(victim, gen2)
	if !ok {
		t.Fatalf("WithDelete(%s) did not find the row", victim)
	}
	var live []*graph.Graph
	for _, g := range gs {
		if g.Name() != victim {
			live = append(live, g)
		}
	}
	live = append(live, late)
	want2 := coldTable(t, live, q)
	if !reflect.DeepEqual(want2.Points, t2.Points) {
		t.Fatalf("patched delete table differs from cold build:\ncold  %v\ndelta %v", want2.Points, t2.Points)
	}
	if t2.Generation != gen2 || t2.Deltas != 2 {
		t.Fatalf("patched table gen=%d deltas=%d, want %d/2", t2.Generation, t2.Deltas, gen2)
	}

	if _, ok := t2.WithDelete("never-inserted", gen2+1); ok {
		t.Fatal("WithDelete of an absent name claimed success")
	}
}

// TestDeltaRowObservesInterleavedMutation: DeltaRow's reported
// generation exposes mutations that land between the caller's read of
// the generation and the row evaluation — the guard the server's
// provability check relies on.
func TestDeltaRowObservesInterleavedMutation(t *testing.T) {
	gs := testutil.SeededGraphs(41, 8)
	q := testutil.SeededQueries(141, gs, 1)[0]
	db := testutil.NewDB(t, gs)
	ack, err := db.Insert(mustNamed(t, 241, "a"), "")
	if err != nil {
		t.Fatal(err)
	}
	gen := ack.Gen
	// A second mutation advances the generation past the first.
	if _, err := db.Insert(mustNamed(t, 242, "b"), ""); err != nil {
		t.Fatal(err)
	}
	_, _, got, ok := db.DeltaRow("a", q, measure.NewSignature(q), nil, gdb.QueryOptions{})
	if !ok {
		t.Fatal("DeltaRow did not find the inserted graph")
	}
	if got == gen {
		t.Fatalf("DeltaRow observed generation %d despite a later mutation", got)
	}
	if _, _, _, ok := db.DeltaRow("missing", q, measure.NewSignature(q), nil, gdb.QueryOptions{}); ok {
		t.Fatal("DeltaRow of an absent name claimed success")
	}
}

// TestDeltaScoreMatchesRankedScan: the score DeltaScore computes for a
// freshly inserted graph at threshold +Inf equals the one the ranked
// scan produces for it, for every rankable measure.
func TestDeltaScoreMatchesRankedScan(t *testing.T) {
	gs := testutil.SeededGraphs(51, 10)
	q := testutil.SeededQueries(151, gs, 1)[0]
	db := testutil.NewDB(t, gs)
	late := testutil.SeededGraphs(251, 1)[0]
	late.SetName("late")
	ack, err := db.Insert(late, "")
	if err != nil {
		t.Fatal(err)
	}
	gen := ack.Gen
	for _, m := range []measure.Measure{measure.DistEd, measure.DistGu} {
		score, in, got, ok := db.DeltaScore("late", q, measure.NewSignature(q), m, math.Inf(1), gdb.QueryOptions{})
		if !ok || !in || got != gen {
			t.Fatalf("m=%s: DeltaScore ok=%v in=%v gen=%d, want true/true/%d", m.Name(), ok, in, got, gen)
		}
		ref, err := testutil.NewDB(t, append(append([]*graph.Graph(nil), gs...), late)).
			TopKQuery(context.Background(), q, m, len(gs)+1, gdb.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, it := range ref.Items {
			if it.ID == "late" {
				found = true
				if it.Score != score {
					t.Fatalf("m=%s: DeltaScore %v, ranked scan %v", m.Name(), score, it.Score)
				}
			}
		}
		if !found {
			t.Fatalf("m=%s: reference scan did not rank the inserted graph", m.Name())
		}
	}
}

// mustNamed returns one seeded graph renamed to name.
func mustNamed(t *testing.T, seed int64, name string) *graph.Graph {
	t.Helper()
	g := testutil.SeededGraphs(seed, 1)[0]
	g.SetName(name)
	return g
}

// TestDeltaSettleMatchesReference: DeltaRow and DeltaScore settle an
// inserted graph exactly as Definition 12 and the ranked baselines
// decide it, over seeded collections × inserted graphs × queries, for
// the paper and the extended bases. Given a
// cold pruned table's rows, DeltaRow keeps the graph exactly when no
// row strictly dominates its reference vector, and a kept row is that
// vector bit for bit. At five thresholds — below the reference score,
// at it (the tie), a cold top-k's k-th score, a radius between the two,
// +Inf — DeltaScore includes the graph exactly when its reference score
// fits, with that score bit for bit. Each call is made twice, so a
// settle that left state behind would answer the repeat differently.
func TestDeltaSettleMatchesReference(t *testing.T) {
	ctx := context.Background()
	measures := []measure.Measure{measure.DistEd, measure.DistNEd, measure.DistMcs, measure.DistGu,
		measure.DistVLabel, measure.DistELabel, measure.DistDegree}
	var kept, dropped, in, out int
	for _, seed := range []int64{61, 62} {
		gs := testutil.SeededGraphs(seed, 8)
		lates := []*graph.Graph{mustNamed(t, seed+200, "late0"), testutil.SeededQueries(seed+300, gs, 1)[0]}
		lates[1].SetName("late1")
		queries := testutil.SeededQueries(seed+100, gs, 3)
		for _, late := range lates {
			db := testutil.NewDB(t, gs)
			type cold struct {
				rows []*gdb.VectorTable
				kth  map[string]float64
			}
			colds := make([]cold, len(queries))
			bases := [][]measure.Measure{measure.Default(), measure.Extended()}
			for i, q := range queries {
				colds[i].kth = map[string]float64{}
				for _, basis := range bases {
					tab, err := db.VectorTable(ctx, q, gdb.QueryOptions{Basis: basis, Prune: true})
					if err != nil {
						t.Fatal(err)
					}
					colds[i].rows = append(colds[i].rows, tab)
				}
				for _, m := range measures {
					res, err := db.TopKQuery(ctx, q, m, 3, gdb.QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					colds[i].kth[m.Name()] = res.Items[2].Score
				}
			}
			ack, err := db.Insert(late, "")
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				qsig := measure.NewSignature(q)
				ps := measure.Compute(late, q, measure.Options{})
				label := fmt.Sprintf("seed %d %s q%d", seed, late.Name(), i)
				for b, basis := range bases {
					ref := measure.GCS(&ps, basis)
					rows := colds[i].rows[b].Points
					wantKept := !slices.ContainsFunc(rows, func(p skyline.Point) bool { return skyline.Dominates(p.Vec, ref) })
					for range 2 {
						pt, k, gen, ok := db.DeltaRow(late.Name(), q, qsig, rows, gdb.QueryOptions{Basis: basis})
						switch {
						case !ok || gen != ack.Gen:
							t.Fatalf("%s basis %d: DeltaRow ok=%v gen=%d, want true/%d", label, b, ok, gen, ack.Gen)
						case k != wantKept:
							t.Fatalf("%s basis %d: DeltaRow kept=%v, want %v (reference %v)", label, b, k, wantKept, ref)
						case k && (pt.ID != late.Name() || !slices.Equal(pt.Vec, ref)):
							t.Fatalf("%s basis %d: DeltaRow %v, reference %v", label, b, pt, ref)
						}
					}
					if wantKept {
						kept++
					} else {
						dropped++
					}
				}
				for _, m := range measures {
					score := m.FromStats(&ps)
					kth := colds[i].kth[m.Name()]
					for _, th := range []float64{score - 1, score, kth, (score + kth) / 2, math.Inf(1)} {
						for range 2 {
							got, fits, gen, ok := db.DeltaScore(late.Name(), q, qsig, m, th, gdb.QueryOptions{})
							switch {
							case !ok || gen != ack.Gen:
								t.Fatalf("%s %s: DeltaScore ok=%v gen=%d, want true/%d", label, m.Name(), ok, gen, ack.Gen)
							case fits != (score <= th):
								t.Fatalf("%s %s th=%v: DeltaScore in=%v, reference score %v", label, m.Name(), th, fits, score)
							case fits && got != score:
								t.Fatalf("%s %s th=%v: DeltaScore %v, reference %v", label, m.Name(), th, got, score)
							}
						}
						if score <= th {
							in++
						} else {
							out++
						}
					}
				}
			}
		}
	}
	if kept == 0 || dropped == 0 || in == 0 || out == 0 {
		t.Fatalf("the grid does not bite: kept %d dropped %d, in %d out %d", kept, dropped, in, out)
	}
	t.Logf("rows kept %d dropped %d; scores in %d out %d", kept, dropped, in, out)
	db := testutil.NewDB(t, testutil.SeededGraphs(61, 4))
	q := testutil.SeededQueries(161, db.Graphs(), 1)[0]
	if _, _, _, ok := db.DeltaScore("missing", q, measure.NewSignature(q), measure.DistEd, math.Inf(1), gdb.QueryOptions{}); ok {
		t.Fatal("DeltaScore of an absent name claimed success")
	}
}

// TestWithGenerationKeepsRows: a generation-only patch advances the
// generation and the delta count and leaves rows and receiver alone.
func TestWithGenerationKeepsRows(t *testing.T) {
	gs := testutil.SeededGraphs(71, 6)
	t0 := coldTable(t, gs, testutil.SeededQueries(171, gs, 1)[0])
	t1 := t0.WithGeneration(t0.Generation + 1)
	if t1.Generation != t0.Generation+1 || t1.Deltas != 1 || !reflect.DeepEqual(t1.Points, t0.Points) {
		t.Fatalf("WithGeneration: gen=%d deltas=%d rows=%v", t1.Generation, t1.Deltas, t1.Points)
	}
	if t0.Deltas != 0 || t0.Generation == t1.Generation {
		t.Fatal("WithGeneration mutated its receiver")
	}
}
