// Package ged computes the graph edit distance of the paper's Definition 8:
// the minimum total cost of a sequence of edit operations (vertex/edge
// insertion, deletion, relabeling) transforming one graph into another.
//
// Engines:
//
//   - Exact: A* over vertex assignments with an admissible label-histogram
//     heuristic (optimal, exponential worst case; fine at paper scale).
//   - Beam: the same search truncated to a beam width (suboptimal, returns
//     an upper bound).
//   - Bipartite: Riesen–Bunke style assignment approximation via the
//     Hungarian algorithm (fast upper bound).
//   - LowerBound: the histogram lower bound itself (cheap, used for index
//     pruning in internal/gdb).
//
// Every engine runs on one compact per-pair form (form.go): labels
// interned to small ints, dense adjacency, cost tables filled once from
// the CostModel, all of it pooled scratch.
package ged

import "skygraph/internal/graph"

// CostModel assigns non-negative costs to the six elementary edit
// operations. The paper (Section IV-A) uses the uniform model: relabeling
// costs 1 when labels differ (0 otherwise) and every insertion/deletion
// costs 1.
type CostModel interface {
	VertexSubst(a, b string) float64
	VertexDel(label string) float64
	VertexIns(label string) float64
	EdgeSubst(a, b string) float64
	EdgeDel(label string) float64
	EdgeIns(label string) float64
}

// Uniform is the paper's uniform cost model.
type Uniform struct{}

// VertexSubst returns 0 for equal labels, 1 otherwise.
func (Uniform) VertexSubst(a, b string) float64 {
	if a == b {
		return 0
	}
	return 1
}

// VertexDel returns 1.
func (Uniform) VertexDel(string) float64 { return 1 }

// VertexIns returns 1.
func (Uniform) VertexIns(string) float64 { return 1 }

// EdgeSubst returns 0 for equal labels, 1 otherwise.
func (Uniform) EdgeSubst(a, b string) float64 {
	if a == b {
		return 0
	}
	return 1
}

// EdgeDel returns 1.
func (Uniform) EdgeDel(string) float64 { return 1 }

// EdgeIns returns 1.
func (Uniform) EdgeIns(string) float64 { return 1 }

// WeightedCost scales the uniform model: label mismatches cost Subst,
// insertions/deletions cost Indel (per element kind). It demonstrates the
// pluggable cost interface; all paper experiments use Uniform.
type WeightedCost struct {
	VertexSubstW, VertexIndelW float64
	EdgeSubstW, EdgeIndelW     float64
}

func (w WeightedCost) VertexSubst(a, b string) float64 {
	if a == b {
		return 0
	}
	return w.VertexSubstW
}
func (w WeightedCost) VertexDel(string) float64 { return w.VertexIndelW }
func (w WeightedCost) VertexIns(string) float64 { return w.VertexIndelW }
func (w WeightedCost) EdgeSubst(a, b string) float64 {
	if a == b {
		return 0
	}
	return w.EdgeSubstW
}
func (w WeightedCost) EdgeDel(string) float64 { return w.EdgeIndelW }
func (w WeightedCost) EdgeIns(string) float64 { return w.EdgeIndelW }

// EditCostOfMapping returns the exact edit cost induced by a complete
// vertex mapping m: m[u] = v maps g1 vertex u to g2 vertex v, m[u] = -1
// deletes u. Every g2 vertex not in the image of m is inserted. The cost of
// any mapping is an upper bound on the edit distance, and the edit distance
// equals the minimum over all mappings (for metric-style cost models such
// as Uniform).
func EditCostOfMapping(g1, g2 *graph.Graph, m []int, cm CostModel) float64 {
	n1, n2 := g1.Order(), g2.Order()
	cost := 0.0
	image := make([]bool, n2)
	for u := 0; u < n1; u++ {
		v := m[u]
		if v < 0 {
			cost += cm.VertexDel(g1.VertexLabel(u))
			continue
		}
		image[v] = true
		cost += cm.VertexSubst(g1.VertexLabel(u), g2.VertexLabel(v))
	}
	for v := 0; v < n2; v++ {
		if !image[v] {
			cost += cm.VertexIns(g2.VertexLabel(v))
		}
	}
	// g1 edges: substituted if both endpoints map and the g2 edge exists,
	// deleted otherwise.
	for _, e := range g1.Edges() {
		v1, v2 := m[e.U], m[e.V]
		if v1 >= 0 && v2 >= 0 {
			if l2, ok := g2.EdgeLabel(v1, v2); ok {
				cost += cm.EdgeSubst(e.Label, l2)
				continue
			}
		}
		cost += cm.EdgeDel(e.Label)
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
		cost += cm.EdgeIns(e.Label)
	}
	return cost
}

// LowerBound returns a cheap admissible lower bound on the uniform-cost
// edit distance: the label-histogram distance over vertices plus the one
// over edges. It never exceeds the true distance and costs O(V+E). It is
// the root value of Exact's heuristic, computed by the same code.
func LowerBound(g1, g2 *graph.Graph) float64 {
	s := searchPool.Get().(*astar)
	defer s.release()
	s.Load(g1, g2)
	s.resetState()
	return s.heuristicAfter(-1, -1)
}
