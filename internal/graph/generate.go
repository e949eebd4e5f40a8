package graph

import (
	"fmt"
	"math/rand"
)

// This file provides deterministic, seedable synthetic graph generators used
// by the dataset builders, the examples and the tests. The molecule-like
// generator mimics the label distributions of chemical-compound benchmarks
// (AIDS-style datasets) common in the graph-similarity literature the paper
// cites.

// Path returns the path graph v0-v1-...-v_{n-1} with uniform labels.
func Path(n int, vlabel, elabel string) *Graph {
	g := New(fmt.Sprintf("path%d", n))
	g.AddVertices(n, vlabel)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, elabel)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices with uniform labels.
func Cycle(n int, vlabel, elabel string) *Graph {
	if n < 3 {
		panic("graph.Cycle: need n >= 3")
	}
	g := Path(n, vlabel, elabel)
	g.SetName(fmt.Sprintf("cycle%d", n))
	g.MustAddEdge(n-1, 0, elabel)
	return g
}

// Complete returns the complete graph K_n with uniform labels.
func Complete(n int, vlabel, elabel string) *Graph {
	g := New(fmt.Sprintf("k%d", n))
	g.AddVertices(n, vlabel)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j, elabel)
		}
	}
	return g
}

// Star returns the star graph with one hub and n-1 leaves.
func Star(n int, vlabel, elabel string) *Graph {
	if n < 1 {
		panic("graph.Star: need n >= 1")
	}
	g := New(fmt.Sprintf("star%d", n))
	g.AddVertices(n, vlabel)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i, elabel)
	}
	return g
}

// ErdosRenyi returns a G(n, p) random graph with labels drawn uniformly
// from the provided alphabets.
func ErdosRenyi(n int, p float64, vlabels, elabels []string, rng *rand.Rand) *Graph {
	g := New(fmt.Sprintf("er%d", n))
	for i := 0; i < n; i++ {
		g.AddVertex(pick(vlabels, rng))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(i, j, pick(elabels, rng))
			}
		}
	}
	return g
}

// ConnectedErdosRenyi is ErdosRenyi followed by joining the components with
// random tree edges so the result is connected.
func ConnectedErdosRenyi(n int, p float64, vlabels, elabels []string, rng *rand.Rand) *Graph {
	g := ErdosRenyi(n, p, vlabels, elabels, rng)
	comps := g.Components()
	for i := 1; i < len(comps); i++ {
		u := comps[i-1][rng.Intn(len(comps[i-1]))]
		v := comps[i][rng.Intn(len(comps[i]))]
		g.MustAddEdge(u, v, pick(elabels, rng))
		comps[i] = append(comps[i], comps[i-1]...)
	}
	return g
}

// MoleculeAlphabet holds the default label alphabets of the molecule-like
// generator: a handful of frequent "atoms" and two "bond" types, echoing
// the label statistics of public chemical graph benchmarks.
var MoleculeAlphabet = struct {
	Atoms []string
	Bonds []string
}{
	Atoms: []string{"C", "C", "C", "C", "N", "O", "S", "P"},
	Bonds: []string{"-", "-", "-", "="},
}

// Molecule returns a connected, degree-bounded (max degree 4) random graph
// with atom/bond style labels on n vertices and roughly 1.15*n edges.
func Molecule(n int, rng *rand.Rand) *Graph {
	g := New(fmt.Sprintf("mol%d", n))
	for i := 0; i < n; i++ {
		g.AddVertex(pick(MoleculeAlphabet.Atoms, rng))
	}
	// Spanning tree first (connectivity), respecting the degree bound.
	for i := 1; i < n; i++ {
		for {
			j := rng.Intn(i)
			if g.Degree(j) < 4 {
				g.MustAddEdge(j, i, pick(MoleculeAlphabet.Bonds, rng))
				break
			}
		}
	}
	// Extra ring-closing edges: about 15% of n, max degree 4.
	extra := n * 15 / 100
	for tries := 0; extra > 0 && tries < 50*n; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) || g.Degree(u) >= 4 || g.Degree(v) >= 4 {
			continue
		}
		g.MustAddEdge(u, v, pick(MoleculeAlphabet.Bonds, rng))
		extra--
	}
	return g
}

// Mutate returns a clone of g perturbed by nops random edit operations drawn
// from {edge insert, edge delete, vertex relabel, edge relabel}. Mutations
// that would disconnect the graph or create duplicates are retried. This is
// the standard way to build query workloads with a known amount of noise.
func Mutate(g *Graph, nops int, vlabels, elabels []string, rng *rand.Rand) *Graph {
	out := g.Clone()
	out.SetName(g.Name() + "~")
	edges := out.Edges()
	for done := 0; done < nops; {
		switch rng.Intn(4) {
		case 0: // insert edge
			if out.Order() < 2 {
				continue
			}
			u, v := rng.Intn(out.Order()), rng.Intn(out.Order())
			if u == v || out.HasEdge(u, v) {
				continue
			}
			out.MustAddEdge(u, v, pick(elabels, rng))
			edges = append(edges, Edge{U: min(u, v), V: max(u, v)})
			done++
		case 1: // delete edge (keep connectivity)
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			if !out.HasEdge(e.U, e.V) {
				continue
			}
			lbl, _ := out.EdgeLabel(e.U, e.V)
			out.RemoveEdge(e.U, e.V)
			if !out.IsConnected() {
				out.MustAddEdge(e.U, e.V, lbl)
				continue
			}
			done++
		case 2: // relabel vertex
			if out.Order() == 0 {
				continue
			}
			v := rng.Intn(out.Order())
			l := pick(vlabels, rng)
			if out.VertexLabel(v) == l {
				continue
			}
			out.RelabelVertex(v, l)
			done++
		case 3: // relabel edge
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			if !out.HasEdge(e.U, e.V) {
				continue
			}
			cur, _ := out.EdgeLabel(e.U, e.V)
			l := pick(elabels, rng)
			if cur == l {
				continue
			}
			out.RelabelEdge(e.U, e.V, l)
			done++
		}
	}
	return out
}

// Rewire returns a clone of g perturbed by nops edge relocations: each
// operation removes one edge and re-adds an edge with the SAME label
// between a different vertex pair (connectivity preserved, max degree
// 4, retried like Mutate). Unlike Mutate, a rewire changes no label
// histogram and no size — the perturbed graph is invisible to
// label-multiset filters (its histogram edit-distance bound to g is 0)
// while its true edit distance grows by up to 2 per operation. Rewired
// families are therefore the adversarial workload for signature-based
// pruning: only a structural bound can separate their members.
func Rewire(g *Graph, nops int, rng *rand.Rand) *Graph {
	out := g.Clone()
	out.SetName(g.Name() + "~")
	if out.Size() == 0 || out.Order() < 3 {
		return out
	}
	for done, tries := 0, 0; done < nops && tries < 200*nops; tries++ {
		edges := out.Edges()
		e := edges[rng.Intn(len(edges))]
		lbl := e.Label
		out.RemoveEdge(e.U, e.V)
		if !out.IsConnected() {
			out.MustAddEdge(e.U, e.V, lbl)
			continue
		}
		u, v := rng.Intn(out.Order()), rng.Intn(out.Order())
		if u == v || out.HasEdge(u, v) || out.Degree(u) >= 4 || out.Degree(v) >= 4 || (u == e.U && v == e.V) || (u == e.V && v == e.U) {
			out.MustAddEdge(e.U, e.V, lbl)
			continue
		}
		out.MustAddEdge(u, v, lbl)
		done++
	}
	return out
}

func pick(labels []string, rng *rand.Rand) string {
	if len(labels) == 0 {
		return ""
	}
	return labels[rng.Intn(len(labels))]
}
