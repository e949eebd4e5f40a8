package ged

import (
	"slices"

	"skygraph/internal/graph"
)

// pairForm is the compact per-pair form every engine in this package
// runs on. The two graphs' labels are interned to small integers — one
// id space for vertex labels, one for edge labels, ids from 1 — so the
// inner loops compare and count int32s instead of hashing strings, and
// adjacency is a dense n×n matrix of edge-label ids (0 = no edge)
// instead of map lookups. The form is built once per pair and lives in
// pooled scratch: stored graphs carry nothing extra.
type pairForm struct {
	n1, n2 int
	// vl1[u], vl2[v] are vertex label ids.
	vl1, vl2 []int32
	// edges1, edges2 list each graph's edges with u < v, sorted by
	// (u, v) — graph.Edges() order, which fixes the order costs are
	// summed in.
	edges1, edges2 []formEdge
	// adj1[u*n1+w], adj2[v*n2+x] are edge label ids, 0 for no edge.
	// Filled by densify; LowerBound never needs them.
	adj1, adj2 []int32
	// vlabels[id-1], elabels[id-1] are the interned labels.
	vlabels, elabels []string

	// Cost tables, filled from the CostModel by fillCosts: the model is
	// consulted once per label (pair) per search, never per node, and
	// custom models run the same kernel as Uniform. Substitution tables
	// are indexed [g1 id * stride + g2 id].
	vsub, vdel, vins []float64
	esub, edel, eins []float64

	inv []int32 // mappingCost scratch: g2 vertex -> g1 vertex
}

type formEdge struct{ u, v, l int32 }

// intern returns the 1-based id of label in *table, adding it when new.
// Alphabets are a handful of symbols, so a scan beats any hash.
func intern(table *[]string, label string) int32 {
	for i, l := range *table {
		if l == label {
			return int32(i + 1)
		}
	}
	*table = append(*table, label)
	return int32(len(*table))
}

// resize returns buf with length n and every element zero, reusing the
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// load interns both graphs' labels and builds the label and edge
// lists: O(V+E) for alphabets of bounded size.
func (f *pairForm) load(g1, g2 *graph.Graph) {
	f.vlabels, f.elabels = f.vlabels[:0], f.elabels[:0]
	f.n1, f.n2 = g1.Order(), g2.Order()
	f.vl1, f.edges1 = f.loadSide(g1, f.vl1, f.edges1)
	f.vl2, f.edges2 = f.loadSide(g2, f.vl2, f.edges2)
}

func (f *pairForm) loadSide(g *graph.Graph, vl []int32, edges []formEdge) ([]int32, []formEdge) {
	n := g.Order()
	vl, edges = resize(vl, n), edges[:0]
	for u := 0; u < n; u++ {
		vl[u] = intern(&f.vlabels, g.VertexLabel(u))
		for w, l := range g.NeighborSet(u) {
			if u < w {
				edges = append(edges, formEdge{int32(u), int32(w), intern(&f.elabels, l)})
			}
		}
	}
	slices.SortFunc(edges, func(a, b formEdge) int {
		if a.u != b.u {
			return int(a.u - b.u)
		}
		return int(a.v - b.v)
	})
	return vl, edges
}

// densify fills the adjacency matrices from the edge lists.
func (f *pairForm) densify() {
	f.adj1 = denseAdj(f.adj1, f.n1, f.edges1)
	f.adj2 = denseAdj(f.adj2, f.n2, f.edges2)
}

func denseAdj(adj []int32, n int, edges []formEdge) []int32 {
	adj = resize(adj, n*n)
	for _, e := range edges {
		adj[int(e.u)*n+int(e.v)] = e.l
		adj[int(e.v)*n+int(e.u)] = e.l
	}
	return adj
}

// nv, ne are the strides of the id-indexed tables (ids start at 1).
func (f *pairForm) nv() int { return len(f.vlabels) + 1 }
func (f *pairForm) ne() int { return len(f.elabels) + 1 }

// fillCosts evaluates cm over the interned alphabets. Cost models must
// be pure functions of their labels.
func (f *pairForm) fillCosts(cm CostModel) {
	nv, ne := f.nv(), f.ne()
	f.vsub, f.vdel, f.vins = resize(f.vsub, nv*nv), resize(f.vdel, nv), resize(f.vins, nv)
	f.esub, f.edel, f.eins = resize(f.esub, ne*ne), resize(f.edel, ne), resize(f.eins, ne)
	for a, la := range f.vlabels {
		f.vdel[a+1], f.vins[a+1] = cm.VertexDel(la), cm.VertexIns(la)
		for b, lb := range f.vlabels {
			f.vsub[(a+1)*nv+b+1] = cm.VertexSubst(la, lb)
		}
	}
	for a, la := range f.elabels {
		f.edel[a+1], f.eins[a+1] = cm.EdgeDel(la), cm.EdgeIns(la)
		for b, lb := range f.elabels {
			f.esub[(a+1)*ne+b+1] = cm.EdgeSubst(la, lb)
		}
	}
}

// histBound is graph.HistogramDistance on a signed counter array:
// entries count a label's occurrences on the g1 side minus those on
// the g2 side, so positives are surplus and negatives deficit, and one
// substitution repairs one of each.
func histBound(c []int32) int32 {
	var surplus, deficit int32
	for _, d := range c {
		if d > 0 {
			surplus += d
		} else {
			deficit -= d
		}
	}
	return max(surplus, deficit)
}

// mappingCost is EditCostOfMapping on the form, summing in the same
// order.
func (f *pairForm) mappingCost(m []int) float64 {
	n1, n2, nv, ne := f.n1, f.n2, f.nv(), f.ne()
	cost := 0.0
	f.inv = resize(f.inv, n2)
	inv := f.inv
	for v := range inv {
		inv[v] = -1
	}
	for u, v := range m {
		if v < 0 {
			cost += f.vdel[f.vl1[u]]
			continue
		}
		inv[v] = int32(u)
		cost += f.vsub[int(f.vl1[u])*nv+int(f.vl2[v])]
	}
	for v, u := range inv {
		if u < 0 {
			cost += f.vins[f.vl2[v]]
		}
	}
	for _, e := range f.edges1 {
		v1, v2 := m[e.u], m[e.v]
		if v1 >= 0 && v2 >= 0 {
			if l2 := f.adj2[v1*n2+v2]; l2 != 0 {
				cost += f.esub[int(e.l)*ne+int(l2)]
				continue
			}
		}
		cost += f.edel[e.l]
	}
	for _, e := range f.edges2 {
		u1, u2 := inv[e.u], inv[e.v]
		if u1 >= 0 && u2 >= 0 && f.adj1[int(u1)*n1+int(u2)] != 0 {
			continue // already charged as substitution
		}
		cost += f.eins[e.l]
	}
	return cost
}
