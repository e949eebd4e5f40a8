package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// rebuilt returns a graph built afresh with g's labels and edges, so its
// flat form has never seen a mutation.
func rebuilt(g *Graph) *Graph {
	h := New(g.Name())
	for _, l := range g.vlabels {
		h.AddVertex(l)
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, e.Label)
	}
	return h
}

// checkFlat checks f against g itself: every vertex's label, and its
// neighbours ascending with their edge labels; both tables distinct.
func checkFlat(t *testing.T, g *Graph, f *Flat) {
	t.Helper()
	if len(f.VL) != g.Order() || len(f.Off) != g.Order()+1 || len(f.Nbr) != 2*g.Size() {
		t.Fatalf("form sizes %d/%d/%d for order %d size %d", len(f.VL), len(f.Off), len(f.Nbr), g.Order(), g.Size())
	}
	for _, table := range [][]string{f.VLabels, f.ELabels} {
		seen := map[string]bool{}
		for _, l := range table {
			if seen[l] {
				t.Fatalf("label %q twice in %q", l, table)
			}
			seen[l] = true
		}
	}
	for v := 0; v < g.Order(); v++ {
		if f.VLabels[f.VL[v]] != g.VertexLabel(v) {
			t.Fatalf("vertex %d: form label %q, graph %q", v, f.VLabels[f.VL[v]], g.VertexLabel(v))
		}
		ws, got := g.Neighbors(v), f.Nbr[f.Off[v]:f.Off[v+1]]
		if len(got) != len(ws) {
			t.Fatalf("vertex %d: %d neighbours in the form, %d in the graph", v, len(got), len(ws))
		}
		for i, x := range got {
			l, _ := g.EdgeLabel(v, ws[i])
			if int(x.W) != ws[i] || f.ELabels[x.L] != l {
				t.Fatalf("vertex %d neighbour %d: %+v, graph has %d over %q", v, i, x, ws[i], l)
			}
		}
	}
}

// TestFlatDroppedByEveryMutator takes a graph's form, mutates the graph
// with each mutator in turn, and checks that the form it then returns
// is a new one, describes the mutated graph and equals the form of the
// same graph built afresh.
func TestFlatDroppedByEveryMutator(t *testing.T) {
	base := func() *Graph {
		g := New("g")
		for _, l := range []string{"C", "C", "O", "N", "C"} {
			g.AddVertex(l)
		}
		g.MustAddEdge(0, 1, "-")
		g.MustAddEdge(1, 2, "=")
		g.MustAddEdge(2, 3, "-")
		g.MustAddEdge(3, 4, "-")
		g.MustAddEdge(4, 0, "=")
		return g
	}
	mutators := []struct {
		name string
		do   func(g *Graph)
	}{
		{"AddVertex", func(g *Graph) { g.AddVertex("S") }},
		{"RelabelVertex", func(g *Graph) { g.RelabelVertex(2, "P") }},
		{"AddEdge", func(g *Graph) { g.MustAddEdge(1, 3, "#") }},
		{"RemoveEdge", func(g *Graph) { g.RemoveEdge(2, 3) }},
		{"RelabelEdge", func(g *Graph) { g.RelabelEdge(4, 0, "-") }},
		{"RemoveVertex", func(g *Graph) { g.RemoveVertex(1) }},
		{"UnmarshalJSON", func(g *Graph) {
			if err := json.Unmarshal([]byte(`{"name":"j","vertices":["A","B"],"edges":[{"u":0,"v":1,"label":"x"}]}`), g); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			g := base()
			before := g.Flat()
			checkFlat(t, g, before)
			m.do(g)
			after := g.Flat()
			if after == before {
				t.Fatal("the mutation left the old form in place")
			}
			checkFlat(t, g, after)
			if fresh := rebuilt(g).Flat(); !reflect.DeepEqual(after, fresh) {
				t.Fatalf("form after the mutation %+v, built afresh %+v", after, fresh)
			}
			if g.Flat() != after {
				t.Fatal("an unmutated graph rebuilt its form")
			}
		})
	}
	t.Run("Clone", func(t *testing.T) {
		g := base()
		f := g.Flat()
		c := g.Clone()
		if c.Flat() == f {
			t.Fatal("a clone shares its source's form")
		}
		c.RelabelVertex(0, "S")
		if g.Flat() != f {
			t.Fatal("mutating a clone dropped its source's form")
		}
		checkFlat(t, c, c.Flat())
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			g := ErdosRenyi(rng.Intn(12), 0.4, []string{"", "A", "B"}, []string{"", "x", "y"}, rng)
			checkFlat(t, g, g.Flat())
		}
	})
}

// TestFlatConcurrentFirstUse has many goroutines ask a fresh graph for
// its form at once: every one gets a correct form, and the race
// detector sees the publication.
func TestFlatConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := Molecule(6+rng.Intn(10), rng)
		forms := make([]*Flat, 8)
		var wg sync.WaitGroup
		for i := range forms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				forms[i] = g.Flat()
			}()
		}
		wg.Wait()
		for _, f := range forms {
			if !reflect.DeepEqual(f, forms[0]) {
				t.Fatalf("concurrent forms differ: %+v vs %+v", f, forms[0])
			}
		}
		checkFlat(t, g, forms[0])
	}
}
