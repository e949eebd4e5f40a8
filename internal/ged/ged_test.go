package ged

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skygraph/internal/graph"
	"skygraph/internal/pairform"
)

func TestDistanceIdentical(t *testing.T) {
	g := graph.Cycle(5, "A", "x")
	if d := Distance(g, g.Clone()); d != 0 {
		t.Errorf("d=%v, want 0", d)
	}
}

func TestDistanceIsomorphicIsZero(t *testing.T) {
	g := graph.New("g")
	g.AddVertex("A")
	g.AddVertex("B")
	g.AddVertex("C")
	g.MustAddEdge(0, 1, "x")
	g.MustAddEdge(1, 2, "y")
	h := graph.New("h") // same graph, vertices permuted
	h.AddVertex("C")
	h.AddVertex("A")
	h.AddVertex("B")
	h.MustAddEdge(1, 2, "x")
	h.MustAddEdge(2, 0, "y")
	if d := Distance(g, h); d != 0 {
		t.Errorf("d=%v, want 0 for isomorphic graphs", d)
	}
}

func TestDistanceSingleOps(t *testing.T) {
	base := graph.Path(4, "A", "x")
	cases := []struct {
		name string
		ops  []graph.EditOp
		want float64
	}{
		{"vertex relabel", []graph.EditOp{graph.RelabelVertexOp{V: 1, Label: "B"}}, 1},
		{"edge relabel", []graph.EditOp{graph.RelabelEdgeOp{U: 1, V: 2, Label: "y"}}, 1},
		{"edge delete", []graph.EditOp{graph.DeleteEdge{U: 2, V: 3}}, 1},
		{"edge insert", []graph.EditOp{graph.InsertEdge{U: 0, V: 3, Label: "x"}}, 1},
		{"vertex insert", []graph.EditOp{graph.InsertVertex{Label: "Z"}}, 1},
		{"two ops", []graph.EditOp{
			graph.RelabelVertexOp{V: 0, Label: "Q"},
			graph.InsertEdge{U: 0, V: 2, Label: "z"},
		}, 2},
	}
	for _, c := range cases {
		mutated, err := graph.ApplyScript(base, c.ops)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := Distance(base, mutated); d != c.want {
			t.Errorf("%s: d=%v, want %v", c.name, d, c.want)
		}
	}
}

func TestDistanceEmptyGraphs(t *testing.T) {
	e := graph.New("e")
	g := graph.Path(3, "A", "x") // 3 vertices + 2 edges
	if d := Distance(e, g); d != 5 {
		t.Errorf("d(empty,P3)=%v, want 5", d)
	}
	if d := Distance(g, e); d != 5 {
		t.Errorf("d(P3,empty)=%v, want 5", d)
	}
	if d := Distance(e, graph.New("e2")); d != 0 {
		t.Errorf("d(empty,empty)=%v", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		g1 := graph.Molecule(5+rng.Intn(3), rng)
		g2 := graph.Molecule(5+rng.Intn(3), rng)
		d12, d21 := Distance(g1, g2), Distance(g2, g1)
		if d12 != d21 {
			t.Fatalf("not symmetric: %v vs %v\n%s\n%s", d12, d21, g1, g2)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		a := graph.Molecule(5, rng)
		b := graph.Molecule(5, rng)
		c := graph.Molecule(5, rng)
		dab, dbc, dac := Distance(a, b), Distance(b, c), Distance(a, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle violated: d(a,c)=%v > %v + %v", dac, dab, dbc)
		}
	}
}

// bruteDistance minimizes EditCostOfMapping over every injective partial
// mapping — the definitionally correct distance for mapping-induced costs.
func bruteDistance(g1, g2 *graph.Graph) float64 {
	n1 := g1.Order()
	m := make([]int, n1)
	used := make([]bool, g2.Order())
	best := math.Inf(1)
	var rec func(u int)
	rec = func(u int) {
		if u == n1 {
			if c := EditCostOfMapping(g1, g2, m); c < best {
				best = c
			}
			return
		}
		m[u] = -1
		rec(u + 1)
		for v := 0; v < g2.Order(); v++ {
			if used[v] {
				continue
			}
			m[u] = v
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
		m[u] = -1
	}
	rec(0)
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := graph.ErdosRenyi(1+r.Intn(4), 0.5, []string{"A", "B"}, []string{"x", "y"}, r)
		g2 := graph.ErdosRenyi(1+r.Intn(4), 0.5, []string{"A", "B"}, []string{"x", "y"}, r)
		got := Distance(g1, g2)
		want := bruteDistance(g1, g2)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestExactMappingRealizesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g1 := graph.Molecule(6, rng)
		g2 := graph.Molecule(6, rng)
		res := Exact(g1, g2, Options{})
		if !res.Exact {
			t.Fatal("exact search not exact")
		}
		realized := EditCostOfMapping(g1, g2, res.Mapping)
		if math.Abs(realized-res.Distance) > 1e-9 {
			t.Fatalf("mapping cost %v != reported %v", realized, res.Distance)
		}
	}
}

func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		g1 := graph.Molecule(6, rng)
		g2 := graph.Molecule(6, rng)
		lb := LowerBound(g1, g2)
		d := Distance(g1, g2)
		if lb > d+1e-9 {
			t.Fatalf("lower bound %v exceeds distance %v", lb, d)
		}
	}
}

func TestBipartiteUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		g1 := graph.Molecule(7, rng)
		g2 := graph.Molecule(7, rng)
		ub := Bipartite(g1, g2)
		d := Distance(g1, g2)
		if ub.Distance < d-1e-9 {
			t.Fatalf("bipartite %v below exact %v", ub.Distance, d)
		}
		realized := EditCostOfMapping(g1, g2, ub.Mapping)
		if math.Abs(realized-ub.Distance) > 1e-9 {
			t.Fatalf("bipartite mapping cost %v != reported %v", realized, ub.Distance)
		}
	}
}

func TestBipartiteEmpty(t *testing.T) {
	e := graph.New("e")
	if r := Bipartite(e, e.Clone()); r.Distance != 0 {
		t.Errorf("d=%v", r.Distance)
	}
	g := graph.Path(3, "A", "x")
	if r := Bipartite(e, g); r.Distance != 5 {
		t.Errorf("d(empty,P3)=%v, want 5", r.Distance)
	}
}

func TestBeamUpperBoundAndConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g1 := graph.Molecule(5, rng)
		g2 := graph.Molecule(5, rng)
		d := Distance(g1, g2)
		// Beam search is not strictly monotone in width (truncation sets do
		// not nest), but every width yields an upper bound, and a beam wider
		// than the whole level set is exhaustive, hence exact.
		var full float64
		for _, w := range []int{1, 5, 50, 1 << 24} {
			b := Beam(g1, g2, w)
			if b.Distance < d-1e-9 {
				t.Fatalf("beam(%d) %v below exact %v", w, b.Distance, d)
			}
			full = b.Distance
		}
		if math.Abs(full-d) > 1e-9 {
			t.Fatalf("full-width beam %v != exact %v", full, d)
		}
	}
}

// TestExactStopSignal: a closed stop signal stops the search at its
// first expansion and proves nothing, limit or not — only a verdict the
// root settles without expanding stands; an open one changes nothing,
// expansion count included.
func TestExactStopSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	closed, open := make(chan struct{}), make(chan struct{})
	close(closed)
	for i := 0; i < 20; i++ {
		g1, g2 := graph.Molecule(3+rng.Intn(6), rng), graph.Molecule(3+rng.Intn(6), rng)
		want := Exact(g1, g2, Options{})
		limit := want.Distance - 1
		for _, lim := range []*float64{nil, &limit} {
			plain := Exact(g1, g2, Options{Limit: lim})
			if got := Exact(g1, g2, Options{Limit: lim, Stop: open}); !reflect.DeepEqual(got, plain) {
				t.Fatalf("pair %d limit %v: open signal changed %+v to %+v", i, lim, plain, got)
			}
			got := Exact(g1, g2, Options{Limit: lim, Stop: closed})
			switch {
			case plain.Nodes == 0:
				if !reflect.DeepEqual(got, plain) {
					t.Fatalf("pair %d limit %v: root verdict %+v became %+v", i, lim, plain, got)
				}
			case got.Exact || got.AboveLimit || got.Nodes != 0 || got.Mapping != nil:
				t.Fatalf("pair %d limit %v: closed signal gave %+v", i, lim, got)
			}
		}
	}
}

// TestExactStopPolledEvery: a signal that closes after the poll at the
// first expansion stops the search at the next poll, pollEvery
// expansions in.
func TestExactStopPolledEvery(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g1, g2 := graph.Molecule(12, rng), graph.Molecule(12, rng)
	if n := Exact(g1, g2, Options{}).Nodes; n <= pollEvery {
		t.Fatalf("the pair expands %d nodes, want more than %d", n, pollEvery)
	}
	stop := make(chan struct{})
	close(stop)
	s := newSearch(g1, g2)
	defer s.release()
	s.kids, s.best = pairform.Resize(s.kids, s.N1*(s.N2+1)), pairform.Resize(s.best, s.N1)
	s.nodes = 1 // the poll at the first expansion found it open
	if s.expand(0, 0, s.h(), stop) || s.nodes != pollEvery {
		t.Fatalf("search ran on past the signal: %d expansions, want %d", s.nodes, pollEvery)
	}
}

func TestEditCostOfMappingDeleteAll(t *testing.T) {
	g1 := graph.Path(3, "A", "x")
	g2 := graph.Path(2, "B", "y")
	m := []int{-1, -1, -1}
	// delete 3 vertices + 2 edges, insert 2 vertices + 1 edge = 8
	if c := EditCostOfMapping(g1, g2, m); c != 8 {
		t.Errorf("cost=%v, want 8", c)
	}
}
