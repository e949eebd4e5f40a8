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
// solver's working memory, recycled across calls through costPool.
type costBuf struct {
	flat []float64
	rows [][]float64
	// inc1[u*ne+l], inc2[v*ne+l] count vertex u's (v's) incident edges
	// with label id l.
	inc1, inc2 []int32
	// diff is one cell's signed edge-label counters.
	diff   []int32
	solver assign.Scratch
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
// distance.
func Bipartite(g1, g2 *graph.Graph) Result {
	if g1.Order()+g2.Order() == 0 {
		return Result{Distance: 0, Mapping: []int{}, Exact: true}
	}
	s := loadPair(g1, g2)
	defer s.release()
	n1, n2 := s.N1, s.N2
	n := n1 + n2
	buf := costPool.Get().(*costBuf)
	defer costPool.Put(buf)
	cost := buf.matrix(n)
	// Per-vertex incident edge-label histograms, computed once instead of
	// per (u, v) cell. The histogram distance between u's and v's
	// (halved: each edge has two endpoints and would otherwise be
	// double-counted across the assignment) estimates the edge cost
	// implied by mapping u -> v — matched labels are free, the remainder
	// costs one substitution or indel each. A deleted (inserted) vertex
	// likewise carries half of each incident edge's deletion (insertion).
	ne := s.NE()
	buf.inc1 = incidentHists(buf.inc1, s.Adj1, n1, ne)
	buf.inc2 = incidentHists(buf.inc2, s.Adj2, n2, ne)
	buf.diff = pairform.Resize(buf.diff, ne)
	for u := 0; u < n1; u++ {
		h1 := buf.inc1[u*ne : (u+1)*ne]
		for v := 0; v < n2; v++ {
			for l, c2 := range buf.inc2[v*ne : (v+1)*ne] {
				buf.diff[l] = h1[l] - c2
			}
			cost[u][v] = float64(mismatch(s.VL1[u], s.VL2[v])) + float64(histBound(buf.diff))/2
		}
		for j := n2; j < n; j++ {
			if j == n2+u {
				cost[u][j] = 1 + float64(len(s.Nbrs1(u)))/2
			} else {
				cost[u][j] = bigCost
			}
		}
	}
	for i := n1; i < n; i++ {
		for v := 0; v < n2; v++ {
			if i == n1+v {
				cost[i][v] = 1 + float64(len(s.Nbrs2(v)))/2
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
	return Result{Distance: float64(s.mappingCost(m)), Mapping: m, Exact: false}
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

// beamNode is one partial assignment Beam keeps: the first depth
// vertices of the order are decided, the last of them as v, at path
// cost g.
type beamNode struct{ g, parent, v, depth int32 }

// Beam runs the exact search's assignment steps breadth-first,
// restricted to the `width` cheapest nodes per depth level: each kept
// node's state is rebuilt by replaying its decisions (replay), and its
// children are scored from there without being applied (score). It returns
// an upper bound on the edit distance (exact when the optimal path
// survives the beam; guaranteed only for width >= the full branching).
func Beam(g1, g2 *graph.Graph, width int) Result {
	if width < 1 {
		width = 1
	}
	s := newSearch(g1, g2)
	defer s.release()
	n1, n2 := s.N1, s.N2
	if n1 == 0 {
		// Pure insertion of g2.
		return Result{Distance: float64(s.h()), Mapping: []int{}, Exact: true}
	}

	// Levels hold indices into slab, where every kept node's parent is.
	slab := []beamNode{{}}
	level := []int32{0}
	for depth := 0; depth < n1; depth++ {
		var next []int32
		u := int(s.order[depth])
		add := func(parent int32, v int) {
			c, h := s.score(u, v)
			g := slab[parent].g + c
			if depth+1 == n1 {
				g += h // the insertion of what is left of g2
			}
			slab = append(slab, beamNode{g: g, parent: parent, v: int32(v), depth: int32(depth + 1)})
			next = append(next, int32(len(slab)-1))
		}
		for _, cur := range level {
			s.replay(slab, cur)
			s.decide(u, 1)
			for v := 0; v < n2; v++ {
				if !s.used[v] {
					add(cur, v)
				}
			}
			add(cur, -1)
		}
		sort.Slice(next, func(i, j int) bool { return slab[next[i]].g < slab[next[j]].g })
		if len(next) > width {
			next = next[:width]
		}
		level = next
	}
	best := level[0]
	for _, n := range level[1:] {
		if slab[n].g < slab[best].g {
			best = n
		}
	}
	s.replay(slab, best)
	m := make([]int, n1)
	for u, v := range s.mapping {
		m[u] = int(v)
	}
	return Result{Distance: float64(slab[best].g), Mapping: m, Exact: false}
}

// replay puts the search in the assignment state of slab node n by
// applying the decisions on its parent chain to a blank state: the
// state depends only on which decisions were made, not their order.
func (s *search) replay(slab []beamNode, n int32) {
	s.resetState()
	for nd := slab[n]; nd.depth > 0; nd = slab[nd.parent] {
		u := int(s.order[nd.depth-1])
		s.decide(u, 1)
		s.assign(u, int(nd.v), 1)
	}
}
