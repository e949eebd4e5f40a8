package ged

import (
	"math/rand"
	"slices"
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

// recountBound is childBound's definition, counted from scratch: the
// histogram distance between the labels of the g1 vertices still
// undecided once u is decided and of the g2 vertices still unused once v
// is used (-1: none), plus the same over edges with an open endpoint.
func recountBound(s *astar, u, v int) float64 {
	cv, ce := make([]int32, s.NV()), make([]int32, s.NE())
	open1 := func(w int32) bool { return int(w) != u && s.mapping[w] == -2 }
	open2 := func(x int32) bool { return int(x) != v && !s.used[x] }
	for w, l := range s.VL1 {
		if open1(int32(w)) {
			cv[l]++
		}
	}
	for x, l := range s.VL2 {
		if open2(int32(x)) {
			cv[l]--
		}
	}
	for _, e := range s.Edges1 {
		if open1(e.U) || open1(e.V) {
			ce[e.L]++
		}
	}
	for _, e := range s.Edges2 {
		if open2(e.U) || open2(e.V) {
			ce[e.L]--
		}
	}
	return float64(histBound(cv) + histBound(ce))
}

// TestChildBoundMatchesRecount runs Exact's expansion loop on seeded
// pairs and, at every expansion, checks childBound for every child and
// for the deletion against the bound recounted from scratch, and that
// the counters openCounts filled are left as they were. The kernel
// goldens pin the searches' outcomes; this pins the heuristic behind
// them.
func TestChildBoundMatchesRecount(t *testing.T) {
	near, far := harnessPairs(12, 47)
	pairs := append(near, far...)
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 40; i++ {
		labels, bonds := []string{"", "A", "B"}, []string{"", "x", "y"}
		pairs = append(pairs, [2]*graph.Graph{
			graph.ErdosRenyi(rng.Intn(7), 0.5, labels, bonds, rng),
			graph.ErdosRenyi(rng.Intn(7), 0.5, labels, bonds, rng),
		})
	}
	checked := 0
	for _, p := range pairs {
		s := newSearch(p[0], p[1], Uniform{})
		s.useH = true
		if s.N1 > 0 {
			s.openNode(node{}, s.heuristicAfter(-1, -1))
		}
		for len(s.open) > 0 {
			top := s.pop()
			cur := s.slab[top.n]
			depth := int(cur.depth)
			if depth == s.N1 {
				break
			}
			s.loadState(top.n)
			u := int(s.order[depth])
			if depth+1 < s.N1 {
				s.openCounts(u)
				cv, ce := append([]int32(nil), s.cv...), append([]int32(nil), s.ce...)
				for v := -1; v < s.N2; v++ {
					if v >= 0 && s.used[v] {
						continue
					}
					if got, want := s.childBound(v), recountBound(s, u, v); got != want {
						t.Fatalf("%v / %v: expansion of %d at depth %d, child %d: childBound %v, recounted %v", p[0], p[1], u, depth, v, got, want)
					}
					checked++
				}
				if !slices.Equal(cv, s.cv) || !slices.Equal(ce, s.ce) {
					t.Fatalf("%v / %v: childBound left the counters changed", p[0], p[1])
				}
			}
			for v := 0; v < s.N2; v++ {
				if !s.used[v] {
					s.openChild(top.n, v, cur.g+s.assignCost(depth, u, v))
				}
			}
			s.openChild(top.n, -1, cur.g+s.deleteCost(depth, u))
		}
		s.release()
	}
	if checked < 1000 {
		t.Fatalf("only %d child bounds checked", checked)
	}
}
