// Package ged computes the graph edit distance of the paper's Definition 8
// under its uniform cost model: relabeling a vertex or an edge costs 1
// when the labels differ (0 otherwise), and every vertex or edge
// insertion or deletion costs 1. The distance is the minimum total cost
// of an edit sequence transforming one graph into another.
//
// Engines:
//
//   - Exact: depth-first branch and bound over vertex assignments under
//     an admissible anchor-aware label-histogram bound, trying each
//     node's children cheapest first and pruning against the best
//     complete mapping found (optimal, exponential worst case; fine at
//     paper scale). A child's step cost and bound are read off the
//     counters without applying it; only the child descended into is
//     applied.
//   - Beam: the same assignment steps run breadth-first, truncated to a
//     beam width (suboptimal, returns an upper bound), scoring children
//     the same way.
//   - Bipartite: Riesen–Bunke style assignment approximation via the
//     Hungarian algorithm (fast upper bound).
//   - LowerBound: the histogram lower bound itself (cheap, used for index
//     pruning in internal/gdb).
//
// Every engine runs on one compact per-pair form (package pairform):
// labels interned to small ints from one shared alphabet per pair,
// dense adjacency, all of it pooled scratch. Equal ids mean equal
// labels, so a cost is a count of id mismatches and of elements, and
// every path cost is an int32.
package ged

import "skygraph/internal/graph"

// EditCostOfMapping returns the uniform edit cost induced by a complete
// vertex mapping m: m[u] = v maps g1 vertex u to g2 vertex v, m[u] = -1
// deletes u. Every g2 vertex not in the image of m is inserted. The cost
// of any mapping is an upper bound on the edit distance, and the edit
// distance equals the minimum over all mappings. It reads the graphs'
// labels as strings, so it is the reference the kernels are tested
// against.
func EditCostOfMapping(g1, g2 *graph.Graph, m []int) float64 {
	n1, n2 := g1.Order(), g2.Order()
	cost := 0
	image := make([]bool, n2)
	for u := 0; u < n1; u++ {
		v := m[u]
		if v < 0 {
			cost++ // deletion
			continue
		}
		image[v] = true
		if g1.VertexLabel(u) != g2.VertexLabel(v) {
			cost++
		}
	}
	for v := 0; v < n2; v++ {
		if !image[v] {
			cost++ // insertion
		}
	}
	// g1 edges: substituted if both endpoints map and the g2 edge exists,
	// deleted otherwise.
	for _, e := range g1.Edges() {
		v1, v2 := m[e.U], m[e.V]
		if v1 >= 0 && v2 >= 0 {
			if l2, ok := g2.EdgeLabel(v1, v2); ok {
				if e.Label != l2 {
					cost++
				}
				continue
			}
		}
		cost++
	}
	// g2 edges with no g1 counterpart are inserted.
	inv := make([]int, n2)
	for i := range inv {
		inv[i] = -1
	}
	for u, v := range m {
		if v >= 0 {
			inv[v] = u
		}
	}
	for _, e := range g2.Edges() {
		u1, u2 := inv[e.U], inv[e.V]
		if u1 >= 0 && u2 >= 0 {
			if _, ok := g1.EdgeLabel(u1, u2); ok {
				continue // already charged as substitution
			}
		}
		cost++
	}
	return float64(cost)
}

// LowerBound returns a cheap admissible lower bound on the edit
// distance: the label-histogram distance over vertices plus the one
// over edges. It never exceeds the true distance and costs O(V+E). It is
// the root value of Exact's bound, computed by the same code.
func LowerBound(g1, g2 *graph.Graph) float64 {
	s := searchPool.Get().(*search)
	defer s.release()
	s.Load(g1, g2)
	s.rootCounts()
	return float64(s.vs.bound() + s.as.bound())
}
