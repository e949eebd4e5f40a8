package ged

import (
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// harnessPairs builds pairs in the benchmark harness's cold-ranked
// shape: order-5 root molecules, family members two edits from a root,
// and a query one edit from a member. near pairs a query with a sibling
// from its own family, far with a member of another family.
func harnessPairs(n int, seed int64) (near, far [][2]*graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	member := func(root *graph.Graph) *graph.Graph { return graph.Mutate(root, 2, atoms, bonds, rng) }
	for i := 0; i < n; i++ {
		root, other := graph.Molecule(5, rng), graph.Molecule(5, rng)
		q := graph.Mutate(member(root), 1, atoms, bonds, rng)
		near = append(near, [2]*graph.Graph{member(root), q})
		far = append(far, [2]*graph.Graph{member(other), q})
	}
	return near, far
}

// TestExactAllocs keeps the search off the allocator: the slab, heap,
// counters and cost tables are pooled, so a warm Exact allocates little
// more than the mapping it returns (the map-based search paid ~88).
func TestExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	near, far := harnessPairs(8, 41)
	pairs := append(near, far...)
	for _, p := range pairs {
		Exact(p[0], p[1], Options{}) // warm the pool
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		sinkResult = Exact(p[0], p[1], Options{})
	})
	if avg > 12 {
		t.Errorf("Exact allocates %.1f objects per order-5 pair, want <= 12", avg)
	}
}

var sinkResult Result

func benchPairs(b *testing.B, pairs [][2]*graph.Graph, run func(g1, g2 *graph.Graph) Result) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sinkResult = run(p[0], p[1])
	}
}

func BenchmarkExactNear(b *testing.B) {
	near, _ := harnessPairs(64, 43)
	benchPairs(b, near, func(g1, g2 *graph.Graph) Result { return Exact(g1, g2, Options{}) })
}

func BenchmarkExactFar(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchPairs(b, far, func(g1, g2 *graph.Graph) Result { return Exact(g1, g2, Options{}) })
}

// BenchmarkExactFarLimit is the ranked scan's decision run: a candidate
// from another family against the harness's range radius.
func BenchmarkExactFarLimit(b *testing.B) {
	_, far := harnessPairs(64, 43)
	limit := 2.0
	benchPairs(b, far, func(g1, g2 *graph.Graph) Result { return Exact(g1, g2, Options{Limit: &limit}) })
}

func BenchmarkBipartite(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchPairs(b, far, func(g1, g2 *graph.Graph) Result { return Bipartite(g1, g2, nil) })
}
