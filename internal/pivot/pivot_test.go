package pivot

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

func molecules(tb testing.TB, seed int64, n int) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		g := graph.Molecule(5+i%4, rng)
		g.SetName(fmt.Sprintf("g%03d", i))
		out[i] = g
	}
	return out
}

func buildIndex(tb testing.TB, cfg Config, gs []*graph.Graph) *Index {
	tb.Helper()
	ix := New(cfg)
	for _, g := range gs {
		ix.Add(g.Name(), g, measure.NewSignature(g))
	}
	ix.Wait()
	return ix
}

// TestSelectionDeterministic: the same insert sequence yields the same
// pivots and the same columns.
func TestSelectionDeterministic(t *testing.T) {
	gs := molecules(t, 7, 12)
	a := buildIndex(t, Config{Pivots: 3}, gs)
	b := buildIndex(t, Config{Pivots: 3}, gs)
	pa, pb := a.Pivots(), b.Pivots()
	if len(pa) != 3 || len(pb) != 3 {
		t.Fatalf("pivot counts %d / %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pivot %d differs: %s vs %s", i, pa[i], pb[i])
		}
	}
}

// TestBoundsContainTrueGED: for every (query, graph) pair the triangle
// interval must contain the true edit distance.
func TestBoundsContainTrueGED(t *testing.T) {
	gs := molecules(t, 11, 10)
	ix := buildIndex(t, Config{Pivots: 3, MaxNodes: -1, QueryMaxNodes: -1}, gs)
	queries := molecules(t, 99, 3)
	for _, q := range queries {
		qb := ix.Columns().Query(q, measure.NewSignature(q))
		if qb == nil {
			t.Fatal("index not ready after Wait")
		}
		for _, g := range gs {
			lo, hi, ok := qb.GED(g.Name())
			if !ok {
				t.Fatalf("no column for %s", g.Name())
			}
			d := ged.Exact(q, g, ged.Options{}).Distance
			if d < lo || d > hi {
				t.Fatalf("true GED(%s,%s)=%v outside pivot interval [%v, %v]", q.Name(), g.Name(), d, lo, hi)
			}
		}
	}
}

// TestCappedBoundsStillAdmissible: with tiny engine budgets the index
// stores wide intervals — they must still contain the true distance.
func TestCappedBoundsStillAdmissible(t *testing.T) {
	gs := molecules(t, 13, 10)
	ix := buildIndex(t, Config{Pivots: 3, MaxNodes: 5, QueryMaxNodes: 5}, gs)
	q := molecules(t, 101, 1)[0]
	qb := ix.Columns().Query(q, measure.NewSignature(q))
	if qb == nil {
		t.Fatal("index not ready")
	}
	for _, g := range gs {
		lo, hi, ok := qb.GED(g.Name())
		if !ok {
			continue
		}
		d := ged.Exact(q, g, ged.Options{}).Distance
		if d < lo || d > hi {
			t.Fatalf("true GED(q,%s)=%v outside capped pivot interval [%v, %v]", g.Name(), d, lo, hi)
		}
	}
}

// TestRemovePivotRebuilds: deleting a pivot re-selects and recomputes.
func TestRemovePivotRebuilds(t *testing.T) {
	gs := molecules(t, 17, 8)
	ix := buildIndex(t, Config{Pivots: 2}, gs)
	victim := ix.Pivots()[0]
	ix.Remove(victim)
	ix.Wait()
	for _, p := range ix.Pivots() {
		if p == victim {
			t.Fatalf("removed pivot %s still selected", victim)
		}
	}
	pivots, entries, pending := ix.Ready()
	if pivots != 2 || entries != len(gs)-1 || pending != 0 {
		t.Fatalf("after rebuild: pivots=%d entries=%d pending=%d", pivots, entries, pending)
	}
	if _, _, ok := (&QueryBounds{}).GED("x"); ok {
		t.Fatal("empty QueryBounds claimed a column")
	}
}

// TestIncrementalAddAfterSelection: graphs inserted after selection get
// columns without a rebuild.
func TestIncrementalAddAfterSelection(t *testing.T) {
	gs := molecules(t, 19, 5)
	ix := buildIndex(t, Config{Pivots: 4}, gs)
	before := ix.Pivots()
	extra := molecules(t, 23, 7)[5:] // distinct names needed
	for i, g := range extra {
		g.SetName(fmt.Sprintf("x%03d", i))
		ix.Add(g.Name(), g, measure.NewSignature(g))
	}
	ix.Wait()
	after := ix.Pivots()
	if len(before) != len(after) {
		t.Fatalf("pivot count changed: %d -> %d", len(before), len(after))
	}
	_, entries, pending := ix.Ready()
	if entries != len(gs)+len(extra) || pending != 0 {
		t.Fatalf("entries=%d pending=%d", entries, pending)
	}
}

// TestReinsertedNameGetsItsOwnColumn: a name deleted and re-inserted as
// another graph while a worker still computes the old graph's column
// ends up with the new graph's column. The old graph is large, so its
// capped searches run long; meanwhile a second worker computes the new
// graph's small column, which publishes first, and the old column must
// not land after it.
func TestReinsertedNameGetsItsOwnColumn(t *testing.T) {
	ix := buildIndex(t, Config{Pivots: 3, Workers: 2}, molecules(t, 29, 8))
	big := graph.Molecule(16, rand.New(rand.NewSource(31)))
	ix.Add("x", big, measure.NewSignature(big))
	// Wait until the one worker has claimed the old graph's job and runs
	// its engines outside the lock.
	for {
		ix.mu.Lock()
		claimed := len(ix.queue) == 0
		ix.mu.Unlock()
		if claimed {
			break
		}
		runtime.Gosched()
	}
	// Two queued jobs start the second worker.
	fresh := molecules(t, 37, 2)
	other, small := fresh[0], fresh[1]
	ix.Add("y", other, measure.NewSignature(other))
	ix.Remove("x")
	ix.Add("x", small, measure.NewSignature(small))
	ix.Wait()

	ix.mu.Lock()
	got, pivots := ix.entries["x"], ix.pivots
	ix.mu.Unlock()
	if len(got) != len(pivots) {
		t.Fatalf("column of x has %d entries; want %d", len(got), len(pivots))
	}
	for i, p := range pivots {
		if want := distance(small, measure.NewSignature(small), p, ix.cfg.MaxNodes); got[i] != want {
			t.Fatalf("pivot %d: column of x holds %v; want the re-inserted graph's %v", i, got[i], want)
		}
	}
}
