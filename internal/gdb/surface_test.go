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
	eval := measure.Options{GEDMaxNodes: 2000, MCSMaxNodes: 2000}
	m := measure.DistEd{}

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
		opts := gdb.QueryOptions{Eval: eval, Prune: rng.Intn(2) == 0}
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
			// The same name comes back as a different graph: stale memo
			// entries, table rows and index columns of the old value must
			// all be unreachable.
			victim := live[rng.Intn(len(live))].Name()
			remove(victim)
			again := pool[rng.Intn(len(pool))].Clone()
			again.SetName(victim)
			insert(again)
		case r < 8:
			ops = append(ops, historyOp{kind: "skyline", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceSkyline(live, q, eval)))
		case r == 8:
			ops = append(ops, historyOp{kind: "topk", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceTopK(testutil.ReferenceScores(live, q, m, eval), 4)))
		default:
			ops = append(ops, historyOp{kind: "range", q: q, opts: opts})
			want = append(want, fmt.Sprint(testutil.ReferenceRange(testutil.ReferenceScores(live, q, m, eval), 4)))
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

// TestShardCountInvarianceUnderMutation replays one seeded history
// through the database at 1/2/3/7 shards, bare and with the score memo
// attached, and requires every step — Ack.Existed, whether the mutation
// was refused, Names() order, skyline (pruned and unpruned), top-k and
// range answers — to be byte-identical to the reference replay, and so across
// shard counts. The static equivalence grids never mutate; this one
// does little else.
func TestShardCountInvarianceUnderMutation(t *testing.T) {
	ctx := context.Background()
	initial, ops, want := seededHistory(17)
	m := measure.DistEd{}
	for _, memo := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3, 7} {
			sh := testutil.NewSharded(t, shards, initial)
			if memo {
				sh.EnableScoreMemo(4096)
			}
			for i, op := range ops {
				label := fmt.Sprintf("memo=%v shards=%d step %d (%s)", memo, shards, i, op.kind)
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
					if err == nil && ack.Gen != 0 && ack.Gen != sh.ShardGeneration(ack.Shard) {
						t.Fatalf("%s: ack %+v, but shard %d is at generation %d", label, ack, ack.Shard, sh.ShardGeneration(ack.Shard))
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

// TestEngineSurfacePinned pins the exported method sets of *Sharded —
// the one query and mutation surface — and *DB, a shard: exactly one
// insert, one delete and InsertAll; one method per query kind; nothing
// that mutates or queries on a shard. A ninth mutation variant or a
// second query surface fails here, with the list to edit (and DESIGN.md
// "Engine surface" to update alongside).
func TestEngineSurfacePinned(t *testing.T) {
	wantSharded := []string{
		// mutations
		"Delete", "Insert", "InsertAll",
		// queries
		"DiverseSkylineQuery", "RangeQuery", "SkylineQuery", "TopKQuery",
		// table primitives for a caching layer, and their merges
		"MergeSkyline", "MergeTables", "VectorTables",
		// the score memo
		"EnableScoreMemo", "Memo",
		// no-op shims the benchmark harness still calls (shims.go)
		"EnablePivots", "EnableVector", "WaitPivots", "WaitVector",
		// persistence
		"Save", "WriteTo",
		// reads and shard access
		"Generation", "Generations", "Get", "Graphs", "Len", "Names", "NumShards",
		"Shard", "ShardFor", "ShardGeneration", "Stats",
	}
	wantDB := []string{
		"DeltaBound", "DeltaRow", "DeltaScore", "Generation", "Get", "Len", "Memo",
	}
	sort.Strings(wantSharded)
	if got := exportedMethods(&gdb.Sharded{}); !reflect.DeepEqual(got, wantSharded) {
		t.Errorf("*gdb.Sharded exports\n  %v\nthe pinned surface is\n  %v", got, wantSharded)
	}
	if got := exportedMethods(&gdb.DB{}); !reflect.DeepEqual(got, wantDB) {
		t.Errorf("*gdb.DB exports\n  %v\nthe pinned surface is\n  %v", got, wantDB)
	}
}
