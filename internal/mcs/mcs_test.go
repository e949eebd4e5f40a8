package mcs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skygraph/internal/graph"
)

func TestSizeIdenticalGraphs(t *testing.T) {
	g := graph.Cycle(5, "A", "x")
	if got := Size(g, g.Clone()); got != 5 {
		t.Errorf("mcs(C5,C5)=%d, want 5", got)
	}
}

func TestSizeSubgraph(t *testing.T) {
	q := graph.Path(4, "A", "x") // 3 edges
	host := graph.Cycle(6, "A", "x")
	if got := Size(q, host); got != 3 {
		t.Errorf("mcs(P4,C6)=%d, want 3", got)
	}
}

func TestSizeNoCommonLabels(t *testing.T) {
	a := graph.Path(3, "A", "x")
	b := graph.Path(3, "B", "x")
	if got := Size(a, b); got != 0 {
		t.Errorf("mcs=%d, want 0", got)
	}
}

func TestSizeEdgeLabelSensitive(t *testing.T) {
	a := graph.Path(3, "A", "x")
	b := graph.Path(3, "A", "y")
	if got := Size(a, b); got != 0 {
		t.Errorf("mcs=%d, want 0 (edge labels differ)", got)
	}
}

func TestSizeConnectedConstraint(t *testing.T) {
	// g1: two disjoint P2 segments with distinct labels. g2 contains both
	// segments but far apart; a connected common subgraph can only use one.
	g1 := graph.New("g1")
	g1.AddVertex("A")
	g1.AddVertex("B")
	g1.AddVertex("C")
	g1.AddVertex("D")
	g1.MustAddEdge(0, 1, "x")
	g1.MustAddEdge(2, 3, "x")

	g2 := graph.New("g2")
	g2.AddVertex("A") // 0
	g2.AddVertex("B") // 1
	g2.AddVertex("Z") // 2
	g2.AddVertex("C") // 3
	g2.AddVertex("D") // 4
	g2.MustAddEdge(0, 1, "x")
	g2.MustAddEdge(1, 2, "q")
	g2.MustAddEdge(2, 3, "q")
	g2.MustAddEdge(3, 4, "x")

	if got := Size(g1, g2); got != 1 {
		t.Errorf("mcs=%d, want 1 (connectivity must restrict to one segment)", got)
	}
}

func TestExactWitnessConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		g1 := graph.Molecule(8, rng)
		g2 := graph.Molecule(8, rng)
		res := Exact(g1, g2, Options{})
		if !res.Exhausted {
			t.Fatal("search not exhausted")
		}
		checkWitness(t, g1, g2, res.Mapping)
	}
}

// checkWitness verifies the mapping is injective, label-preserving, realizes
// at least Mapping.Edges common edges, and the common edge subgraph is
// connected.
func checkWitness(t *testing.T, g1, g2 *graph.Graph, m Mapping) {
	t.Helper()
	seenU := map[int]bool{}
	seenV := map[int]bool{}
	for _, p := range m.Pairs {
		if seenU[p.U] || seenV[p.V] {
			t.Fatalf("mapping not injective: %v", m.Pairs)
		}
		seenU[p.U], seenV[p.V] = true, true
		if g1.VertexLabel(p.U) != g2.VertexLabel(p.V) {
			t.Fatalf("label mismatch in pair %v", p)
		}
	}
	// Count realized common edges and build the common subgraph on pairs.
	idx := map[int]int{}
	for i, p := range m.Pairs {
		idx[p.U] = i
	}
	common := 0
	cg := graph.New("common")
	cg.AddVertices(len(m.Pairs), "*")
	for i := 0; i < len(m.Pairs); i++ {
		for j := i + 1; j < len(m.Pairs); j++ {
			l1, ok1 := g1.EdgeLabel(m.Pairs[i].U, m.Pairs[j].U)
			l2, ok2 := g2.EdgeLabel(m.Pairs[i].V, m.Pairs[j].V)
			if ok1 && ok2 && l1 == l2 {
				common++
				cg.MustAddEdge(i, j, l1)
			}
		}
	}
	if common < m.Edges {
		t.Fatalf("mapping realizes %d common edges, claimed %d", common, m.Edges)
	}
	if len(m.Pairs) > 0 && !cg.IsConnected() {
		// The common edge subgraph grown by the search must be connected.
		// (Extra common edges can only add connectivity, never remove it.)
		t.Fatalf("common subgraph disconnected: pairs=%v", m.Pairs)
	}
}

func TestExactMatchesBruteForceOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := graph.ErdosRenyi(2+r.Intn(4), 0.6, []string{"A", "B"}, []string{"x"}, r)
		g2 := graph.ErdosRenyi(2+r.Intn(4), 0.6, []string{"A", "B"}, []string{"x"}, r)
		return Size(g1, g2) == bruteMCS(g1, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// bruteMCS enumerates every injective label-preserving vertex mapping and
// returns the max number of common edges whose common subgraph is connected.
func bruteMCS(g1, g2 *graph.Graph) int {
	best := 0
	n1 := g1.Order()
	m := make([]int, n1)
	for i := range m {
		m[i] = -1
	}
	used := make([]bool, g2.Order())
	var rec func(u int)
	eval := func() {
		// Build common edge subgraph over mapped pairs; check connectivity.
		var pairs []Pair
		for u, v := range m {
			if v >= 0 {
				pairs = append(pairs, Pair{U: u, V: v})
			}
		}
		if len(pairs) == 0 {
			return
		}
		cg := graph.New("c")
		cg.AddVertices(len(pairs), "*")
		edges := 0
		for i := 0; i < len(pairs); i++ {
			for j := i + 1; j < len(pairs); j++ {
				l1, ok1 := g1.EdgeLabel(pairs[i].U, pairs[j].U)
				l2, ok2 := g2.EdgeLabel(pairs[i].V, pairs[j].V)
				if ok1 && ok2 && l1 == l2 {
					edges++
					cg.MustAddEdge(i, j, l1)
				}
			}
		}
		// Use the largest connected component's edge count.
		for _, comp := range cg.Components() {
			ce := 0
			inComp := map[int]bool{}
			for _, v := range comp {
				inComp[v] = true
			}
			for _, e := range cg.Edges() {
				if inComp[e.U] && inComp[e.V] {
					ce++
				}
			}
			if ce > best {
				best = ce
			}
		}
	}
	rec = func(u int) {
		if u == n1 {
			eval()
			return
		}
		rec(u + 1) // leave u unmapped
		for v := 0; v < g2.Order(); v++ {
			if used[v] || g1.VertexLabel(u) != g2.VertexLabel(v) {
				continue
			}
			m[u] = v
			used[v] = true
			rec(u + 1)
			m[u] = -1
			used[v] = false
		}
	}
	rec(0)
	return best
}

// TestExactStopSignal: a closed stop signal stops the search at its
// first expansion and proves nothing, decision or not; an open one
// changes nothing, expansion count included.
func TestExactStopSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	closed, open := make(chan struct{}), make(chan struct{})
	close(closed)
	for i := 0; i < 20; i++ {
		g1, g2 := graph.Molecule(3+rng.Intn(8), rng), graph.Molecule(3+rng.Intn(8), rng)
		truth := Size(g1, g2)
		for _, need := range []int{0, truth, truth + 1} {
			plain := Exact(g1, g2, Options{Need: need})
			if got := Exact(g1, g2, Options{Need: need, Stop: open}); !reflect.DeepEqual(got, plain) {
				t.Fatalf("pair %d need %d: open signal changed %+v to %+v", i, need, plain, got)
			}
			if got := Exact(g1, g2, Options{Need: need, Stop: closed}); got.Exhausted || got.ProvedBelowNeed || got.Nodes != 0 {
				t.Fatalf("pair %d need %d: closed signal gave %+v", i, need, got)
			}
		}
	}
}

// TestExactStopPolledEvery: a signal that closes after the poll at the
// first expansion stops the search at the next poll, pollEvery
// expansions in.
func TestExactStopPolledEvery(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// One label: every pair is compatible, so the search branches wide.
	g1 := graph.ErdosRenyi(8, 0.5, []string{"A"}, []string{"x"}, rng)
	g2 := graph.ErdosRenyi(8, 0.5, []string{"A"}, []string{"x"}, rng)
	if n := Exact(g1, g2, Options{}).Nodes; n <= pollEvery {
		t.Fatalf("the pair expands %d nodes, want more than %d", n, pollEvery)
	}
	stop := make(chan struct{})
	close(stop)
	s := newSearcher(g1, g2, false)
	defer s.release()
	s.stop, s.nodes = stop, 1 // the poll at the first expansion found it open
	s.run()
	if !s.halted || s.nodes != pollEvery {
		t.Fatalf("search ran on past the signal: %d expansions, want %d", s.nodes, pollEvery)
	}
}

func TestExactSwapSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		g1 := graph.Molecule(6, rng)
		g2 := graph.Molecule(9, rng)
		if a, b := Size(g1, g2), Size(g2, g1); a != b {
			t.Fatalf("mcs not symmetric: %d vs %d", a, b)
		}
	}
}

func TestGreedyLowerBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		g1 := graph.Molecule(8, rng)
		g2 := graph.Molecule(8, rng)
		exact := Size(g1, g2)
		greedy := Greedy(g1, g2, 10, rng)
		checkWitness(t, g1, g2, greedy)
		if greedy.Edges > exact {
			t.Fatalf("greedy %d exceeds exact %d", greedy.Edges, exact)
		}
	}
}

func TestGreedyNoCommonLabels(t *testing.T) {
	a := graph.Path(3, "A", "x")
	b := graph.Path(3, "B", "x")
	m := Greedy(a, b, 3, rand.New(rand.NewSource(1)))
	if m.Edges != 0 || len(m.Pairs) != 0 {
		t.Errorf("greedy on disjoint labels: %+v", m)
	}
}

func TestSizeEmptyGraphs(t *testing.T) {
	e := graph.New("e")
	g := graph.Path(3, "A", "x")
	if Size(e, g) != 0 || Size(g, e) != 0 || Size(e, e.Clone()) != 0 {
		t.Error("empty graph mcs should be 0")
	}
}
