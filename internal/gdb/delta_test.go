package gdb_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// coldTable builds the unpruned complete table for q over gs on a fresh
// database — the reference every delta patch must reproduce row for row.
func coldTable(t *testing.T, gs []*graph.Graph, q *graph.Graph) *gdb.VectorTable {
	t.Helper()
	tab, err := testutil.NewSharded(t, gs).VectorTable(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDeltaPatchedTableMatchesCold: a table carried across an insert by
// DeltaRow + WithInsert, then across a delete by WithDelete, holds
// exactly the rows — values and order — of a table cold-built over the
// mutated collection.
func TestDeltaPatchedTableMatchesCold(t *testing.T) {
	gs := testutil.SeededGraphs(31, 12)
	q := testutil.SeededQueries(131, gs, 1)[0]
	db := testutil.NewSharded(t, gs)
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
	pt, inexact, got, ok := db.DeltaRow("late", q, measure.NewSignature(q), gdb.QueryOptions{})
	if !ok || got != gen {
		t.Fatalf("DeltaRow ok=%v gen=%d, want true/%d", ok, got, gen)
	}
	t1 := t0.WithInsert(pt, inexact, gen)
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
	db := testutil.NewSharded(t, gs)
	ack, err := db.Insert(mustNamed(t, 241, "a"), "")
	if err != nil {
		t.Fatal(err)
	}
	gen := ack.Gen
	// A second mutation advances the generation past the first.
	if _, err := db.Insert(mustNamed(t, 242, "b"), ""); err != nil {
		t.Fatal(err)
	}
	_, _, got, ok := db.DeltaRow("a", q, measure.NewSignature(q), gdb.QueryOptions{})
	if !ok {
		t.Fatal("DeltaRow did not find the inserted graph")
	}
	if got == gen {
		t.Fatalf("DeltaRow observed generation %d despite a later mutation", got)
	}
	if _, _, _, ok := db.DeltaRow("missing", q, measure.NewSignature(q), gdb.QueryOptions{}); ok {
		t.Fatal("DeltaRow of an absent name claimed success")
	}
}

// TestDeltaScoreMatchesRankedScan: the score DeltaScore computes for a
// freshly inserted graph equals the one the ranked scan produces for
// it, for every rankable measure — with and without a score memo.
func TestDeltaScoreMatchesRankedScan(t *testing.T) {
	gs := testutil.SeededGraphs(51, 10)
	q := testutil.SeededQueries(151, gs, 1)[0]
	for _, withMemo := range []bool{false, true} {
		db := testutil.NewSharded(t, gs)
		if withMemo {
			db.EnableScoreMemo(1024)
		}
		late := testutil.SeededGraphs(251, 1)[0]
		late.SetName("late")
		ack, err := db.Insert(late, "")
		if err != nil {
			t.Fatal(err)
		}
		gen := ack.Gen
		for _, m := range []measure.Measure{measure.DistEd{}, measure.DistGu{}} {
			score, _, got, ok := db.DeltaScore("late", q, measure.NewSignature(q), m, gdb.QueryOptions{})
			if !ok || got != gen {
				t.Fatalf("memo=%v m=%s: DeltaScore ok=%v gen=%d, want true/%d", withMemo, m.Name(), ok, got, gen)
			}
			ref, err := testutil.NewSharded(t, append(append([]*graph.Graph(nil), gs...), late)).
				TopKQuery(context.Background(), q, m, len(gs)+1, gdb.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, it := range ref.Items {
				if it.ID == "late" {
					found = true
					if it.Score != score {
						t.Fatalf("memo=%v m=%s: DeltaScore %v, ranked scan %v", withMemo, m.Name(), score, it.Score)
					}
				}
			}
			if !found {
				t.Fatalf("memo=%v m=%s: reference scan did not rank the inserted graph", withMemo, m.Name())
			}
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

// TestDeltaBoundBracketsDeltaRow: DeltaBound's tier-0 optimistic corner
// is BoundPair's, bit for bit, floors the vector DeltaRow computes for
// the same graph, dimension by dimension, and comes with the generation
// it read at.
func TestDeltaBoundBracketsDeltaRow(t *testing.T) {
	gs := testutil.SeededGraphs(61, 8)
	db := testutil.NewSharded(t, gs)
	late := mustNamed(t, 261, "late")
	ack, err := db.Insert(late, "")
	if err != nil {
		t.Fatal(err)
	}
	basis := measure.Default()
	for _, q := range testutil.SeededQueries(161, gs, 3) {
		qsig := measure.NewSignature(q)
		lo, gen, ok := db.DeltaBound("late", qsig, basis)
		if !ok || gen != ack.Gen {
			t.Fatalf("DeltaBound ok=%v gen=%d, want true/%d", ok, gen, ack.Gen)
		}
		if want, _ := measure.BoundPair(measure.NewSignature(late), qsig).IntervalGCS(basis); !slices.Equal(lo, want) {
			t.Fatalf("q=%s: DeltaBound corner %v, BoundPair corner %v", q.Name(), lo, want)
		}
		pt, _, _, _ := db.DeltaRow("late", q, qsig, gdb.QueryOptions{})
		for d := range pt.Vec {
			if pt.Vec[d] < lo[d] {
				t.Fatalf("q=%s dim %d: row %v under corner %v", q.Name(), d, pt.Vec, lo)
			}
		}
	}
	if _, _, ok := db.DeltaBound("missing", measure.NewSignature(gs[0]), basis); ok {
		t.Fatal("DeltaBound of an absent name claimed success")
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
