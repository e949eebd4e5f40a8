package graph

import "sort"

// LabelHistogram returns the multiset of vertex labels and edge labels as
// count maps. Histograms are isomorphism invariants: Isomorphic compares
// them before it searches.
func (g *Graph) LabelHistogram() (vertices, edges map[string]int) {
	vertices = make(map[string]int, len(g.vlabels))
	for _, l := range g.vlabels {
		vertices[l]++
	}
	edges = make(map[string]int)
	for _, e := range g.Edges() {
		edges[e.Label]++
	}
	return vertices, edges
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, g.Order())
	for v := range seq {
		seq[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seq)))
	return seq
}
