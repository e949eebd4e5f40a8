package ged

import (
	"fmt"
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

// TestExactAllocs keeps the search off the allocator: the slab, heap
// and counters are pooled, so a warm Exact allocates little more than
// the mapping it returns (the map-based search paid ~88).
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

// benchPairs runs run over pairs round robin and returns the total of
// the results' expansion counts.
func benchPairs(b *testing.B, pairs [][2]*graph.Graph, run func(g1, g2 *graph.Graph) Result) (nodes int64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sinkResult = run(p[0], p[1])
		nodes += sinkResult.Nodes
	}
	return nodes
}

// benchExact runs Exact under opts over pairs and reports its mean
// expansion count as nodes/op beside ns/op.
func benchExact(b *testing.B, pairs [][2]*graph.Graph, opts Options) {
	nodes := benchPairs(b, pairs, func(g1, g2 *graph.Graph) Result { return Exact(g1, g2, opts) })
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkExactNear(b *testing.B) {
	near, _ := harnessPairs(64, 43)
	benchExact(b, near, Options{})
}

func BenchmarkExactFar(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchExact(b, far, Options{})
}

// BenchmarkExactFarLimit is the ranked scan's decision run: a candidate
// from another family against the harness's range radius.
func BenchmarkExactFarLimit(b *testing.B) {
	_, far := harnessPairs(64, 43)
	limit := 2.0
	benchExact(b, far, Options{Limit: &limit})
}

func BenchmarkBipartite(b *testing.B) {
	_, far := harnessPairs(64, 43)
	benchPairs(b, far, Bipartite)
}

// recountBound is h's definition, counted from scratch off the
// assignment state: the histogram distance between the labels of
// undecided g1 vertices and unused g2 vertices, plus one edge-label
// histogram distance for the edges among undecided g1 vertices against
// those among unused g2 vertices, and one per decided g1 vertex w for
// its edges toward undecided vertices against m(w)'s toward unused
// ones. pooled is the single edge histogram distance over every edge
// with an open endpoint, which the classes refine.
func recountBound(s *search) (h, pooled int32) {
	open1 := func(w int32) bool { return s.mapping[w] == -2 }
	open2 := func(x int32) bool { return !s.used[x] }
	inv := make([]int32, s.N2)
	for x := range inv {
		inv[x] = -1
	}
	for w, x := range s.mapping {
		if x >= 0 {
			inv[x] = int32(w)
		}
	}
	cv, ca, all := make([]int32, s.NV()), make([]int32, s.NE()), make([]int32, s.NE())
	cls := make([][]int32, s.N1)
	for w := range cls {
		cls[w] = make([]int32, s.NE())
	}
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
		switch {
		case open1(e.U) && open1(e.V):
			ca[e.L]++
		case open1(e.U):
			cls[e.V][e.L]++
		case open1(e.V):
			cls[e.U][e.L]++
		default:
			continue
		}
		all[e.L]++
	}
	for _, e := range s.Edges2 {
		switch {
		case open2(e.U) && open2(e.V):
			ca[e.L]--
		case open2(e.U):
			cls[inv[e.V]][e.L]--
		case open2(e.V):
			cls[inv[e.U]][e.L]--
		default:
			continue
		}
		all[e.L]--
	}
	h = histBound(cv) + histBound(ca)
	for _, c := range cls {
		h += histBound(c)
	}
	return h, histBound(cv) + histBound(all)
}

// stepCostRecount is the cost score charges for deciding u as v, read off
// the dense adjacency: the vertex substitution (or deletion) plus, for
// every decided g1 vertex w, the edge pair ({u,w}, {v,m(w)}).
func stepCostRecount(s *search, u, v int) int32 {
	if v < 0 {
		cost := int32(1)
		for _, w := range s.order {
			if s.mapping[w] != -2 && s.Adj1[u*s.N1+int(w)] != 0 {
				cost++
			}
		}
		return cost
	}
	cost := mismatch(s.VL1[u], s.VL2[v])
	for _, w := range s.order {
		if mw := s.mapping[w]; mw != -2 {
			l2 := int32(0)
			if mw >= 0 {
				l2 = s.Adj2[v*s.N2+int(mw)]
			}
			cost += mismatch(s.Adj1[u*s.N1+int(w)], l2)
		}
	}
	return cost
}

// searchSnapshot copies every piece of state decide and assign
// maintain.
func searchSnapshot(s *search) string {
	return fmt.Sprint(s.mapping, s.used, s.inv, s.cv, s.ca, s.cb, s.vs, s.as, s.cbs, s.cbBound)
}

// sharesUnusedLabel reports whether two unused g2 neighbours of v reach
// it over the same edge label: the step onto v then moves one class (a)
// counter, and one of the decided vertex's class, more than once.
func sharesUnusedLabel(s *search, v int) bool {
	seen := map[int32]bool{}
	for _, x := range s.Nbrs2(v) {
		if !s.used[x.W] {
			if seen[x.L] {
				return true
			}
			seen[x.L] = true
		}
	}
	return false
}

// TestChildBoundMatchesRecount walks the search tree of seeded pairs the
// way the search does, applying each child's step and undoing it, and
// checks at every child that the incrementally kept h equals the bound
// recounted from scratch and is never below the pooled histogram bound,
// that the step cost matches the adjacency recount, that a complete
// assignment's g + h is its edit cost, and that undoing a decision restores
// every counter. The step cost and the bound after it are read with
// score, as the search reads them, without applying the child: score
// must return the h the applied step (assign) leaves, and change no
// state. Children reached over two unused neighbours sharing an edge
// label, where score must accumulate one counter's moves, have a floor
// of their own. The kernel goldens pin the searches' outcomes; this
// pins the bound behind them.
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
	checked, shared := 0, 0
	for _, p := range pairs {
		s := newSearch(p[0], p[1])
		if h, _ := recountBound(s); h != s.h() {
			t.Fatalf("%v / %v: root h %d, recounted %d", p[0], p[1], s.h(), h)
		}
		var walk func(depth int, g int32)
		walk = func(depth int, g int32) {
			u := int(s.order[depth])
			var descend []int
			for v := -1; v < s.N2; v++ {
				if v >= 0 && s.used[v] {
					continue
				}
				before := searchSnapshot(s)
				want := stepCostRecount(s, u, v)
				if v >= 0 && sharesUnusedLabel(s, v) {
					shared++
				}
				s.decide(u, 1)
				decided := searchSnapshot(s)
				c, sh := s.score(u, v)
				if after := searchSnapshot(s); after != decided {
					t.Fatalf("%v / %v: scoring step %d->%d changed the state:\n%s\n%s", p[0], p[1], u, v, decided, after)
				}
				if c != want {
					t.Fatalf("%v / %v: step %d->%d at depth %d costs %d, recounted %d", p[0], p[1], u, v, depth, c, want)
				}
				s.assign(u, v, 1)
				h, pooled := recountBound(s)
				if got := s.h(); got != h || got < pooled {
					t.Fatalf("%v / %v: step %d->%d at depth %d: h %d, recounted %d, pooled %d", p[0], p[1], u, v, depth, got, h, pooled)
				}
				if sh != h {
					t.Fatalf("%v / %v: step %d->%d at depth %d scores h %d, applied %d", p[0], p[1], u, v, depth, sh, h)
				}
				if depth+1 == s.N1 {
					m := make([]int, s.N1)
					for w, x := range s.mapping {
						m[w] = int(x)
					}
					if got, want := g+c+s.h(), s.mappingCost(m); got != want {
						t.Fatalf("%v / %v: goal %v: g+h %d, mapping cost %d", p[0], p[1], m, got, want)
					}
				} else if len(descend) < 2 && rng.Intn(3) == 0 {
					descend = append(descend, v)
				}
				s.assign(u, v, -1)
				s.decide(u, -1)
				if after := searchSnapshot(s); after != before {
					t.Fatalf("%v / %v: undoing step %d->%d changed the state:\n%s\n%s", p[0], p[1], u, v, before, after)
				}
				checked++
			}
			for _, v := range descend {
				s.decide(u, 1)
				c, _ := s.score(u, v)
				s.assign(u, v, 1)
				walk(depth+1, g+c)
				s.assign(u, v, -1)
				s.decide(u, -1)
			}
		}
		if s.N1 > 0 {
			walk(0, 0)
		}
		s.release()
	}
	if checked < 1000 {
		t.Fatalf("only %d child bounds checked", checked)
	}
	t.Logf("%d children checked, %d over two unused neighbours sharing an edge label", checked, shared)
	if shared < 100 {
		t.Fatalf("only %d children over two unused neighbours sharing an edge label", shared)
	}
}
