package mcs

import (
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// harnessPairs builds pairs in the benchmark harness's cold-skyline
// shape: order-6 database molecules against queries two edits from a
// database molecule. near pairs a query with the molecule it came from,
// far with another one.
func harnessPairs(n int, seed int64) (near, far [][2]*graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	for i := 0; i < n; i++ {
		db, other := graph.Molecule(6, rng), graph.Molecule(6, rng)
		q := graph.Mutate(db, 2, atoms, bonds, rng)
		near = append(near, [2]*graph.Graph{db, q})
		far = append(far, [2]*graph.Graph{other, q})
	}
	return near, far
}

// TestExactAllocs keeps the search off the allocator: the form, the
// mapping state and the best-mapping copy are pooled, so a warm Exact
// allocates the mapping it returns and little else (the map-based
// searcher paid ~13).
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
	if avg > 2 {
		t.Errorf("Exact allocates %.1f objects per order-6 pair, want <= 2", avg)
	}
}

// TestPooledScratchBounded: a large pair's form must not stay pinned in
// the pool after its search returns.
func TestPooledScratchBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g1, g2 := graph.Molecule(300, rng), graph.Molecule(300, rng)
	// A stopped run loads the form and expands nothing.
	stop := make(chan struct{})
	close(stop)
	Exact(g1, g2, Options{Stop: stop})
	s := searcherPool.Get().(*searcher)
	defer searcherPool.Put(s)
	if s.Oversized() {
		t.Fatalf("pool holds a form of %d+%d adjacency cells after an order-300 pair", cap(s.Adj1), cap(s.Adj2))
	}
}

var sinkResult Result

func benchPairs(b *testing.B, pairs [][2]*graph.Graph, opts Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sinkResult = Exact(p[0], p[1], opts)
	}
}

func BenchmarkExactNear(b *testing.B) {
	near, _ := harnessPairs(64, 43)
	benchPairs(b, near, Options{})
}

func BenchmarkExactFar(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchPairs(b, far, Options{})
}

// BenchmarkExactNeed is a ranked scan's decision run: a candidate from
// elsewhere against a threshold that needs four common edges.
func BenchmarkExactNeed(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchPairs(b, far, Options{Need: 4})
}
