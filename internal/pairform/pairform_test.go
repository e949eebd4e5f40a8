package pairform

import (
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// checkSide compares one side of a loaded form with the graph it was
// loaded from: labels, the edge list in graph.Edges() order, ascending
// neighbour lists and the dense matrix.
func checkSide(t *testing.T, f *Form, g *graph.Graph, n int, vl []int32, edges []Edge, nbrs func(int) []Nbr, adj []int32) {
	t.Helper()
	if n != g.Order() || len(vl) != n {
		t.Fatalf("order %d, %d labels; graph has %d", n, len(vl), g.Order())
	}
	for u, id := range vl {
		if f.VLabels[id-1] != g.VertexLabel(u) {
			t.Fatalf("vertex %d: label id %d is %q, graph says %q", u, id, f.VLabels[id-1], g.VertexLabel(u))
		}
	}
	want := g.Edges()
	if len(edges) != len(want) {
		t.Fatalf("%d edges, graph has %d", len(edges), len(want))
	}
	for i, e := range edges {
		if int(e.U) != want[i].U || int(e.V) != want[i].V || f.ELabels[e.L-1] != want[i].Label {
			t.Fatalf("edge %d: %+v, graph has %+v", i, e, want[i])
		}
	}
	for u := 0; u < n; u++ {
		ws := g.Neighbors(u)
		got := nbrs(u)
		if len(got) != len(ws) {
			t.Fatalf("vertex %d: %d neighbours, graph has %d", u, len(got), len(ws))
		}
		for i, nb := range got {
			l, _ := g.EdgeLabel(u, ws[i])
			if int(nb.W) != ws[i] || f.ELabels[nb.L-1] != l {
				t.Fatalf("vertex %d neighbour %d: %+v, graph has %d over %q", u, i, nb, ws[i], l)
			}
		}
		for w := 0; w < n; w++ {
			l, ok := g.EdgeLabel(u, w)
			if id := adj[u*n+w]; (id != 0) != ok || (ok && f.ELabels[id-1] != l) {
				t.Fatalf("adjacency (%d,%d) = %d, graph has %q %t", u, w, id, l, ok)
			}
		}
	}
}

// TestLoadMatchesGraphs loads random pairs into one reused form — the
// pooled kernels' usage — and checks both sides against the graphs,
// including the shared id spaces: equal labels get equal ids.
func TestLoadMatchesGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f Form
	for trial := 0; trial < 200; trial++ {
		g1 := graph.ErdosRenyi(rng.Intn(8), 0.4, []string{"", "A", "B"}, []string{"", "x", "y"}, rng)
		g2 := graph.ErdosRenyi(rng.Intn(8), 0.4, []string{"A", "C"}, []string{"x", "z"}, rng)
		if trial%10 == 0 {
			// Hubs past the insertion-sort cutoff.
			g2 = graph.ErdosRenyi(20+rng.Intn(20), 0.8, []string{"A", "C"}, []string{"x", "z"}, rng)
		}
		f.Load(g1, g2)
		f.Densify()
		checkSide(t, &f, g1, f.N1, f.VL1, f.Edges1, f.Nbrs1, f.Adj1)
		checkSide(t, &f, g2, f.N2, f.VL2, f.Edges2, f.Nbrs2, f.Adj2)
		seen := map[string]bool{}
		for _, l := range f.VLabels {
			if seen[l] {
				t.Fatalf("vertex label %q interned twice: %q", l, f.VLabels)
			}
			seen[l] = true
		}
	}
}

func TestOversized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var f Form
	f.Load(graph.Molecule(8, rng), graph.Molecule(8, rng))
	f.Densify()
	if f.Oversized() {
		t.Fatal("an order-8 pair counts as oversized")
	}
	f.Load(graph.Molecule(300, rng), graph.Molecule(8, rng))
	f.Densify()
	if !f.Oversized() {
		t.Fatalf("an order-300 pair (%d adjacency cells) is not oversized", cap(f.Adj1))
	}
}
