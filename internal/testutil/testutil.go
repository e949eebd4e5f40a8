// Package testutil provides deterministic seeded graph-database
// builders and equivalence helpers shared by the gdb and server
// tests. Everything here is reproducible from a seed, so failures
// reported by the property tests can be replayed exactly.
package testutil

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// SeededGraphs returns n deterministic molecule-like graphs with unique
// names g000, g001, ... derived from seed. Sizes cycle through 5..8
// vertices so exact-engine pair evaluation stays cheap.
func SeededGraphs(seed int64, n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		g := graph.Molecule(5+i%4, rng)
		g.SetName(fmt.Sprintf("g%03d", i))
		out[i] = g
	}
	return out
}

// SeededQueries returns n deterministic query graphs: mutated clones of
// members of gs, renamed q000, q001, ...
func SeededQueries(seed int64, gs []*graph.Graph, n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		base := gs[rng.Intn(len(gs))]
		q := graph.Mutate(base, 1+rng.Intn(3), graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rng)
		q.SetName(fmt.Sprintf("q%03d", i))
		out[i] = q
	}
	return out
}

// NoisyFamily returns n close relatives of one 5-vertex molecule (two
// random edits each, names g00000, g00001, ...) and 8 one-edit queries
// drawn from them. Every graph sits within a few edits of every other,
// so on a small database a ranked scan excludes many candidates by engine
// decision runs and branch bounds side by side — the regime where
// attributing one exclusion to two stages once drove a stage count
// negative.
func NoisyFamily(n int) (gs, queries []*graph.Graph) {
	gs = dataset.NoisyQueries(dataset.MoleculeDB(1, 5, 5, 1), n, 2, 3)
	for i, g := range gs {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	return gs, dataset.NoisyQueries(gs, 8, 1, 101)
}

// NewDB builds a database over gs, inserted in order so the
// insertion order is the slice's.
func NewDB(tb testing.TB, gs []*graph.Graph) *gdb.DB {
	tb.Helper()
	db := gdb.New()
	if err := db.InsertAll(gs); err != nil {
		tb.Fatalf("testutil: building DB: %v", err)
	}
	return db
}

// ReferenceTable is the full comparison table of q over gs on the
// default basis, straight from Definition 11 with leaf functions only:
// the GCS vector of every graph against q, in gs (insertion) order. No
// bound, index or engine table is involved, so agreement
// with it (and with the Reference* answers derived the same way) is
// evidence about the engine and not about two of its paths agreeing
// with each other.
func ReferenceTable(gs []*graph.Graph, q *graph.Graph) []skyline.Point {
	pts := make([]skyline.Point, len(gs))
	for i, g := range gs {
		pts[i] = skyline.Point{ID: g.Name(), Vec: measure.ComputeGCS(g, q, measure.Options{})}
	}
	return pts
}

// ReferenceSkyline computes GSS(gs, q) per Definition 12: a
// block-nested-loop skyline over ReferenceTable, in gs order.
func ReferenceSkyline(gs []*graph.Graph, q *graph.Graph) []skyline.Point {
	return skyline.BNL(ReferenceTable(gs, q))
}

// ReferenceScores returns the exact score of every graph under m, in gs
// (insertion) order, each from a full pair evaluation. ReferenceTopK and
// ReferenceRange derive the two ranked answers from it.
func ReferenceScores(gs []*graph.Graph, q *graph.Graph, m measure.Measure) []topk.Item {
	items := make([]topk.Item, len(gs))
	for i, g := range gs {
		ps := measure.Compute(g, q, measure.Options{})
		items[i] = topk.Item{ID: g.Name(), Score: m.FromStats(&ps)}
	}
	return items
}

// ReferenceTopK is the k best of scores in the engine's reporting
// order, ascending (score, ID).
func ReferenceTopK(scores []topk.Item, k int) []topk.Item {
	out := append([]topk.Item{}, scores...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ReferenceRange is every row of scores within radius, in insertion
// order.
func ReferenceRange(scores []topk.Item, radius float64) []topk.Item {
	out := []topk.Item{}
	for _, it := range scores {
		if it.Score <= radius {
			out = append(out, it)
		}
	}
	return out
}

// RequireSameSkyline fails unless want and got hold the same skyline:
// the same (ID, vector) members, order-insensitively, with exact vector
// equality (both engines run the identical pair computations, so even
// floats must match bitwise).
func RequireSameSkyline(tb testing.TB, label string, want, got []skyline.Point) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: skyline sizes differ: want %d %v, got %d %v",
			label, len(want), pointIDs(want), len(got), pointIDs(got))
	}
	w := sortedPoints(want)
	g := sortedPoints(got)
	for i := range w {
		if w[i].ID != g[i].ID {
			tb.Fatalf("%s: skyline members differ: want %v, got %v", label, pointIDs(want), pointIDs(got))
		}
		if !sameVec(w[i].Vec, g[i].Vec) {
			tb.Fatalf("%s: vectors for %s differ: want %v, got %v", label, w[i].ID, w[i].Vec, g[i].Vec)
		}
	}
}

// RequireSameItems fails unless want and got are identical (ID, score)
// sequences — top-k and range answers are deterministic, so order
// matters here.
func RequireSameItems(tb testing.TB, label string, want, got []topk.Item) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: item counts differ: want %d %v, got %d %v", label, len(want), want, len(got), got)
	}
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("%s: item %d differs: want %+v, got %+v", label, i, want[i], got[i])
		}
	}
}

func sortedPoints(pts []skyline.Point) []skyline.Point {
	out := append([]skyline.Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func pointIDs(pts []skyline.Point) []string {
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
