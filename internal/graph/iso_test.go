package graph

import (
	"math/rand"
	"testing"
)

// permute returns a copy of g with vertices renamed by a random permutation.
func permute(g *Graph, rng *rand.Rand) *Graph {
	n := g.Order()
	perm := rng.Perm(n)
	out := New(g.Name() + "_perm")
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	for i := 0; i < n; i++ {
		out.AddVertex(g.VertexLabel(inv[i]))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(perm[e.U], perm[e.V], e.Label)
	}
	return out
}

func TestIsomorphicSelf(t *testing.T) {
	g := Cycle(5, "A", "x")
	if !Isomorphic(g, g.Clone()) {
		t.Error("graph not isomorphic to its clone")
	}
}

func TestIsomorphicUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := ConnectedErdosRenyi(8, 0.3, []string{"A", "B"}, []string{"x", "y"}, rng)
		h := permute(g, rng)
		if !Isomorphic(g, h) {
			t.Fatalf("trial %d: permuted copy not isomorphic\n%s\n%s", trial, g, h)
		}
	}
}

func TestNonIsomorphicLabels(t *testing.T) {
	g := Path(3, "A", "x")
	h := Path(3, "A", "x")
	h.RelabelVertex(1, "B")
	if Isomorphic(g, h) {
		t.Error("label difference missed")
	}
	h2 := Path(3, "A", "x")
	h2.RelabelEdge(0, 1, "y")
	if Isomorphic(g, h2) {
		t.Error("edge label difference missed")
	}
}

func TestNonIsomorphicStructure(t *testing.T) {
	// Same degree histogram, different structure: two triangles vs 6-cycle.
	g := New("2tri")
	g.AddVertices(6, "A")
	g.MustAddEdge(0, 1, "x")
	g.MustAddEdge(1, 2, "x")
	g.MustAddEdge(0, 2, "x")
	g.MustAddEdge(3, 4, "x")
	g.MustAddEdge(4, 5, "x")
	g.MustAddEdge(3, 5, "x")
	h := Cycle(6, "A", "x")
	if Isomorphic(g, h) {
		t.Error("C6 reported isomorphic to 2xK3")
	}
}

func TestSubgraphIsomorphismBasic(t *testing.T) {
	host := Cycle(6, "A", "x")
	pat := Path(4, "A", "x")
	if !SubgraphIsomorphic(pat, host) {
		t.Error("P4 not found in C6")
	}
	if SubgraphIsomorphic(host, pat) {
		t.Error("C6 found in P4")
	}
}

func TestSubgraphIsomorphismNonInduced(t *testing.T) {
	// Monomorphism: P3 must embed into K3 even though K3 has the extra
	// closing edge (non-induced embedding).
	pat := Path(3, "A", "x")
	host := Complete(3, "A", "x")
	if !SubgraphIsomorphic(pat, host) {
		t.Error("monomorphism P3 -> K3 not found (induced semantics leaked in)")
	}
}

func TestSubgraphIsomorphismLabelSensitive(t *testing.T) {
	host := Path(4, "A", "x")
	pat := Path(2, "A", "y")
	if SubgraphIsomorphic(pat, host) {
		t.Error("edge label mismatch ignored")
	}
	pat2 := Path(2, "B", "x")
	if SubgraphIsomorphic(pat2, host) {
		t.Error("vertex label mismatch ignored")
	}
}

func TestSubSupergraphHelpers(t *testing.T) {
	q := Path(3, "A", "x")
	super := Path(5, "A", "x")
	if !IsSupergraphOf(super, q) {
		t.Error("IsSupergraphOf failed")
	}
	if IsSupergraphOf(q, super) {
		t.Error("IsSupergraphOf inverted")
	}
}

func TestIsomorphicDisconnected(t *testing.T) {
	g := New("g")
	g.AddVertices(4, "A")
	g.MustAddEdge(0, 1, "x")
	g.MustAddEdge(2, 3, "x")
	rng := rand.New(rand.NewSource(3))
	h := permute(g, rng)
	if !Isomorphic(g, h) {
		t.Error("disconnected isomorphism failed")
	}
}

func TestSubgraphIsomorphicDisconnectedPattern(t *testing.T) {
	pat := New("pat")
	pat.AddVertices(4, "A")
	pat.MustAddEdge(0, 1, "x")
	pat.MustAddEdge(2, 3, "x")
	host := Path(5, "A", "x")
	if !SubgraphIsomorphic(pat, host) {
		t.Error("two disjoint edges not found in P5")
	}
	host2 := Path(3, "A", "x") // only 2 edges sharing a vertex
	if SubgraphIsomorphic(pat, host2) {
		t.Error("two disjoint edges found in P3")
	}
}
