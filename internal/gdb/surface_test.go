package gdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// historyOp is one step of a seeded mutation-and-query history.
type historyOp struct {
	kind string       // insert, delete, skyline, topk, range
	g    *graph.Graph // insert
	name string       // delete
	q    *graph.Graph // queries
	opts gdb.QueryOptions
}

// seededHistory builds one ~60-step history over a pool of seeded
// graphs — inserts (some of live names: duplicates), deletes (some of
// absent names), delete-then-reinsert of a name under a DIFFERENT graph
// value, and skyline (pruned and unpruned), top-k and range queries — and,
// by replaying it on a plain list, what every step must answer: the
// mutation's Existed, the live names in insertion order, and the query
// answer straight from Definitions 11–12.
func seededHistory(seed int64) (initial []*graph.Graph, ops []historyOp, want []string) {
	rng := rand.New(rand.NewSource(seed))
	pool := testutil.SeededGraphs(seed, 28)
	queries := testutil.SeededQueries(seed+100, pool, 4)
	m := measure.DistEd

	initial = pool[:10]
	live := append([]*graph.Graph(nil), initial...)
	next := len(initial)
	find := func(name string) int {
		for i, g := range live {
			if g.Name() == name {
				return i
			}
		}
		return -1
	}
	insert := func(g *graph.Graph) {
		existed := find(g.Name()) >= 0
		if !existed {
			live = append(live, g)
		}
		ops = append(ops, historyOp{kind: "insert", g: g})
		want = append(want, renderMutation(existed, existed, live))
	}
	remove := func(name string) {
		i := find(name)
		if i >= 0 {
			live = append(live[:i:i], live[i+1:]...)
		}
		ops = append(ops, historyOp{kind: "delete", name: name})
		want = append(want, renderMutation(i >= 0, false, live))
	}
	for len(ops) < 60 {
		q := queries[rng.Intn(len(queries))]
		opts := gdb.QueryOptions{Prune: rng.Intn(2) == 0}
		switch r := rng.Intn(10); {
		case r < 2 && next < len(pool):
			insert(pool[next])
			next++
		case r == 2:
			insert(live[rng.Intn(len(live))]) // duplicate name: refused
		case r == 3:
			remove(live[rng.Intn(len(live))].Name())
		case r == 4:
			remove("never-inserted")
		case r == 5:
			// The same name comes back as a different graph: stale table
			// rows and index columns of the old value must all be
			// unreachable.
			victim := live[rng.Intn(len(live))].Name()
			remove(victim)
			again := pool[rng.Intn(len(pool))].Clone()
			again.SetName(victim)
			insert(again)
		case r < 8:
			ops = append(ops, historyOp{kind: "skyline", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceSkyline(live, q)))
		case r == 8:
			ops = append(ops, historyOp{kind: "topk", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceTopK(testutil.ReferenceScores(live, q, m), 4)))
		default:
			ops = append(ops, historyOp{kind: "range", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceRange(testutil.ReferenceScores(live, q, m), 4)))
		}
	}
	return initial, ops, want
}

func renderMutation(existed, failed bool, live []*graph.Graph) string {
	names := make([]string, len(live))
	for i, g := range live {
		names[i] = g.Name()
	}
	return fmt.Sprintf("existed=%v failed=%v names=%v", existed, failed, names)
}

// TestMutationHistoryMatchesReference replays one seeded history
// through the database and requires every step — Ack.Existed, whether
// the mutation was refused, Names() order, skyline (pruned and
// unpruned), top-k and range answers — to be byte-identical to the
// reference replay, and every ack to carry the generation it produced.
// The static equivalence grids never mutate; this one does little else.
func TestMutationHistoryMatchesReference(t *testing.T) {
	ctx := context.Background()
	initial, ops, want := seededHistory(17)
	m := measure.DistEd
	sh := testutil.NewDB(t, initial)
	for i, op := range ops {
		label := fmt.Sprintf("step %d (%s)", i, op.kind)
		var got string
		switch op.kind {
		case "insert", "delete":
			var ack gdb.Ack
			var err error
			if op.kind == "insert" {
				ack, err = sh.Insert(op.g, "")
			} else {
				ack, err = sh.Delete(op.name, "")
			}
			if err == nil && ack.Gen != 0 && ack.Gen != sh.Generation() {
				t.Fatalf("%s: ack %+v, but the database is at generation %d", label, ack, sh.Generation())
			}
			got = fmt.Sprintf("existed=%v failed=%v names=%v", ack.Existed, err != nil, sh.Names())
		case "skyline":
			res, err := sh.SkylineQuery(ctx, op.q, op.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got = fmt.Sprint(res.Skyline)
		case "topk":
			res, err := sh.TopKQuery(ctx, op.q, m, 4, op.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got = fmt.Sprint(res.Items)
		case "range":
			res, err := sh.RangeQuery(ctx, op.q, m, 4, op.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got = fmt.Sprint(res.Items)
		}
		if got != want[i] {
			t.Fatalf("%s (prune=%v):\n got %s\nwant %s", label, op.opts.Prune, got, want[i])
		}
	}
}

// exportedMethods lists the exported method set of a pointer type.
func exportedMethods(v any) []string {
	t := reflect.TypeOf(v)
	out := make([]string, t.NumMethod())
	for i := range out {
		out[i] = t.Method(i).Name // reflect lists methods in sorted order
	}
	return out
}

// TestEngineSurfacePinned pins the exported method set of *DB —
// the one query and mutation surface: exactly one insert, one delete and
// InsertAll; one method per query kind. A ninth mutation variant or a
// second query surface fails here, with the list to edit (and DESIGN.md
// "Engine surface" to update alongside). shims.go also holds the
// package-level harness shims beside the five methods below: New
// builds the database.
func TestEngineSurfacePinned(t *testing.T) {
	want := []string{
		// mutations
		"Delete", "Insert", "InsertAll",
		// queries
		"DiverseSkylineQuery", "RangeQuery", "SkylineQuery", "TopKQuery",
		// the table primitive for a caching layer
		"VectorTable",
		// the single-row reads of delta maintenance
		"DeltaRow", "DeltaScore",
		// no-op shims the benchmark harness still calls (shims.go)
		"EnablePivots", "EnableScoreMemo", "EnableVector", "WaitPivots", "WaitVector",
		// the idempotency-key evidence of keyed mutations
		"Keyed",
		// persistence
		"Save", "WriteTo",
		// reads
		"Generation", "Get", "Graphs", "Len", "Names", "Stats",
	}
	sort.Strings(want)
	if got := exportedMethods(&gdb.DB{}); !reflect.DeepEqual(got, want) {
		t.Errorf("*gdb.DB exports\n  %v\nthe pinned surface is\n  %v", got, want)
	}
}
