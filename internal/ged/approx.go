package ged

import (
	"sort"
	"sync"

	"skygraph/internal/assign"
	"skygraph/internal/graph"
	"skygraph/internal/pairform"
)

// bigCost stands in for +infinity in assignment matrices (the Hungarian
// solver requires finite costs). It dwarfs any realistic edit cost while
// staying far from float64 overflow.
const bigCost = 1e12

// costBuf is a reusable square cost matrix: one flat backing array with
// row views sliced out of it, plus the per-vertex incident edge-label
// histograms the substitution block is built from and the assignment
// solver's working memory. Bipartite runs on every capped exact
// fallback, so this allocation is hot.
type costBuf struct {
	flat []float64
	rows [][]float64
	// inc1[u*ne+l], inc2[v*ne+l] count vertex u's (v's) incident edges
	// with label id l.
	inc1, inc2 []int32
	solver     assign.Scratch
}

// matrix returns an n x n view over the buffer, growing it as needed.
// Cells are not zeroed; Bipartite writes every cell.
func (b *costBuf) matrix(n int) [][]float64 {
	if cap(b.flat) < n*n {
		b.flat = make([]float64, n*n)
	}
	b.flat = b.flat[:n*n]
	if cap(b.rows) < n {
		b.rows = make([][]float64, n)
	}
	b.rows = b.rows[:n]
	for i := range b.rows {
		b.rows[i] = b.flat[i*n : (i+1)*n]
	}
	return b.rows
}

var costPool = sync.Pool{New: func() any { return &costBuf{} }}

// Bipartite computes the Riesen–Bunke style assignment-based approximation:
// a square (n1+n2)x(n1+n2) cost matrix couples every g1 vertex to every g2
// vertex (substitution including a local edge-histogram estimate), to its
// private deletion slot, and every g2 vertex to its private insertion slot.
// The optimal assignment induces a full vertex mapping whose true edit cost
// (EditCostOfMapping) is returned — always an upper bound on the exact
// distance. cm == nil means Uniform{}.
func Bipartite(g1, g2 *graph.Graph, cm CostModel) Result {
	if cm == nil {
		cm = Uniform{}
	}
	n1, n2 := g1.Order(), g2.Order()
	n := n1 + n2
	if n == 0 {
		return Result{Distance: 0, Mapping: []int{}, Exact: true}
	}
	s := newSearch(g1, g2, cm)
	defer s.release()
	buf := costPool.Get().(*costBuf)
	defer costPool.Put(buf)
	cost := buf.matrix(n)
	// Per-vertex incident edge-label histograms, computed once instead of
	// per (u, v) cell. The histogram distance between u's and v's
	// (halved: each edge has two endpoints and would otherwise be
	// double-counted across the assignment) estimates the edge cost
	// implied by mapping u -> v — matched labels are free, the remainder
	// costs one substitution or indel each.
	nv, ne := s.NV(), s.NE()
	buf.inc1 = incidentHists(buf.inc1, s.Adj1, n1, ne)
	buf.inc2 = incidentHists(buf.inc2, s.Adj2, n2, ne)
	s.ce = pairform.Resize(s.ce, ne)
	for u := 0; u < n1; u++ {
		h1 := buf.inc1[u*ne : (u+1)*ne]
		for v := 0; v < n2; v++ {
			for l, c2 := range buf.inc2[v*ne : (v+1)*ne] {
				s.ce[l] = h1[l] - c2
			}
			cost[u][v] = s.vsub[int(s.VL1[u])*nv+int(s.VL2[v])] + float64(histBound(s.ce))/2
		}
		for j := n2; j < n; j++ {
			if j == n2+u {
				cost[u][j] = s.vdel[s.VL1[u]] + incidentEdgeCost(s.Adj1[u*n1:(u+1)*n1], s.edel)
			} else {
				cost[u][j] = bigCost
			}
		}
	}
	for i := n1; i < n; i++ {
		for v := 0; v < n2; v++ {
			if i == n1+v {
				cost[i][v] = s.vins[s.VL2[v]] + incidentEdgeCost(s.Adj2[v*n2:(v+1)*n2], s.eins)
			} else {
				cost[i][v] = bigCost
			}
		}
		// Bottom-right block: epsilon -> epsilon costs nothing. Written
		// explicitly because the pooled matrix arrives dirty.
		for j := n2; j < n; j++ {
			cost[i][j] = 0
		}
	}
	a, _, err := buf.solver.Solve(cost)
	if err != nil {
		// Cannot happen for the matrices built above; fall back to the
		// trivial delete-all/insert-all mapping.
		a = make([]int, n)
		for i := range a {
			a[i] = (i + n2) % n
		}
	}
	m := make([]int, n1)
	for u := 0; u < n1; u++ {
		if a[u] < n2 {
			m[u] = a[u]
		} else {
			m[u] = -1
		}
	}
	return Result{Distance: s.mappingCost(m), Mapping: m, Exact: false}
}

// incidentHists returns each vertex's incident edge-label histogram as
// rows of ne counters, read off the dense adjacency matrix.
func incidentHists(buf, adj []int32, n, ne int) []int32 {
	buf = pairform.Resize(buf, n*ne)
	for v := 0; v < n; v++ {
		for _, l := range adj[v*n : (v+1)*n] {
			if l != 0 {
				buf[v*ne+int(l)]++
			}
		}
	}
	return buf
}

// incidentEdgeCost charges half of each incident edge's indel cost (the
// other endpoint carries the other half); row is the vertex's adjacency
// row, per the deletion or insertion table.
func incidentEdgeCost(row []int32, per []float64) float64 {
	c := 0.0
	for _, l := range row {
		if l != 0 {
			c += per[l] / 2
		}
	}
	return c
}

// Beam runs the A* search restricted to the `width` best nodes per depth
// level. It returns an upper bound on the edit distance (exact when the
// optimal path survives the beam; guaranteed only for width >= the full
// branching). cm == nil means Uniform{}.
func Beam(g1, g2 *graph.Graph, width int, cm CostModel) Result {
	if cm == nil {
		cm = Uniform{}
	}
	if width < 1 {
		width = 1
	}
	s := newSearch(g1, g2, cm)
	defer s.release()
	n1, n2 := s.N1, s.N2
	if n1 == 0 {
		// Pure insertion of g2.
		return Result{Distance: s.completionCostAfter(-1), Mapping: []int{}, Exact: true}
	}

	// Levels hold slab indices; the open list is unused, so children go
	// straight onto the slab.
	s.slab = append(s.slab, node{})
	level := []int32{0}
	for depth := 0; depth < n1; depth++ {
		var next []int32
		u := int(s.order[depth])
		add := func(parent int32, v int, g float64) {
			if depth+1 == n1 {
				g += s.completionCostAfter(v)
			}
			s.slab = append(s.slab, node{g: g, parent: parent, v: int32(v), depth: int32(depth + 1)})
			next = append(next, int32(len(s.slab)-1))
		}
		for _, cur := range level {
			s.loadState(cur)
			g := s.slab[cur].g
			for v := 0; v < n2; v++ {
				if !s.used[v] {
					add(cur, v, g+s.assignCost(depth, u, v))
				}
			}
			add(cur, -1, g+s.deleteCost(depth, u))
		}
		sort.Slice(next, func(i, j int) bool { return s.slab[next[i]].g < s.slab[next[j]].g })
		if len(next) > width {
			next = next[:width]
		}
		level = next
	}
	best := level[0]
	for _, n := range level[1:] {
		if s.slab[n].g < s.slab[best].g {
			best = n
		}
	}
	return Result{Distance: s.slab[best].g, Mapping: s.extractMapping(best), Exact: false}
}
