package ged

import (
	"math"
	"sync"

	"skygraph/internal/graph"
	"skygraph/internal/pairform"
)

// Options tunes the exact search.
type Options struct {
	// Cost is the cost model; nil means Uniform{}.
	Cost CostModel
	// MaxNodes caps A* node expansions; 0 means unlimited. When the cap is
	// hit, Exact falls back to the bipartite upper bound and reports
	// Exact=false in the result.
	MaxNodes int64
	// DisableHeuristic switches A* to uniform-cost search (h = 0). The
	// histogram heuristic is admissible for the Uniform model; for custom
	// cost models with unit costs below 1 it could overestimate, so it is
	// automatically disabled unless the model is Uniform.
	DisableHeuristic bool
	// Limit, when non-nil, turns the search into a decision procedure
	// for "distance > *Limit": the moment the cheapest open node's
	// f-value exceeds the limit, every remaining completion provably
	// costs more than the limit (the f-value of an ancestor lower-bounds
	// all of its completions), so the search stops and reports
	// AboveLimit with Distance holding that proven lower bound. A goal
	// within the limit is returned exactly as without Limit. Ranked
	// queries use this to discard candidates whose distance provably
	// exceeds the current top-k threshold without paying for exactness.
	Limit *float64
}

// Result reports a distance computation.
type Result struct {
	// Distance is the edit distance (exact) or an upper bound (inexact).
	Distance float64
	// Mapping is the vertex mapping realizing Distance: Mapping[u] is the
	// g2 vertex assigned to g1 vertex u, or -1 for deletion.
	Mapping []int
	// Exact is true when Distance is provably minimal.
	Exact bool
	// AboveLimit is true when the search stopped early having proven
	// Distance > *Options.Limit; Distance then holds the proven lower
	// bound and Mapping is nil. Only possible when Options.Limit is set.
	AboveLimit bool
	// LowerBound is a proven lower bound on the true distance: the
	// distance itself for exact results, the cheapest open f-value at
	// the stopping point for capped or limit-stopped searches (the
	// f-value of an ancestor lower-bounds all of its completions, so no
	// mapping can cost less). Engines that do not search (Bipartite,
	// Beam) leave it 0 — the trivial bound.
	LowerBound float64
	// Nodes is the number of A* expansions performed.
	Nodes int64
}

// Distance returns the exact uniform-cost edit distance between g1 and g2.
func Distance(g1, g2 *graph.Graph) float64 {
	return Exact(g1, g2, Options{}).Distance
}

// Exact computes the edit distance by A* over vertex assignments.
func Exact(g1, g2 *graph.Graph, opts Options) Result {
	cm := opts.Cost
	if cm == nil {
		cm = Uniform{}
	}
	_, uniform := cm.(Uniform)

	s := newSearch(g1, g2, cm)
	s.useH = uniform && !opts.DisableHeuristic
	if opts.Limit != nil {
		s.limit = *opts.Limit
	}
	res := s.run(opts.MaxNodes)
	s.release()
	if !res.Exact && !res.AboveLimit {
		// Graceful degradation: bipartite approximation upper bound. An
		// AboveLimit result is left alone — its Distance is a proven
		// lower bound, which an upper bound cannot replace.
		ub := Bipartite(g1, g2, cm)
		if ub.Distance < res.Distance || res.Mapping == nil {
			res.Distance = ub.Distance
			res.Mapping = ub.Mapping
		}
	}
	return res
}

// node is one partial assignment in the search slab: the first depth
// vertices of the processing order are decided, the last of them as v.
type node struct {
	g      float64
	parent int32 // slab index
	v      int32 // g2 vertex assigned to order[depth-1], or -1 for deletion
	depth  int32 // number of g1 vertices assigned
}

// openItem is an open-list entry: a slab index keyed by f = g + h.
type openItem struct {
	f float64
	n int32
}

// astar is the search state of one pair, shared by Exact and Beam;
// Bipartite and LowerBound borrow its form and counters.
// Everything here is scratch recycled through searchPool, so a warm
// search allocates only the mapping it returns.
type astar struct {
	pairForm

	order []int32 // g1 vertices, high degree first
	useH  bool
	limit float64 // decision threshold (+Inf = plain optimization)

	// Assignment state of the node being expanded, rebuilt by loadState.
	mapping []int32 // g1 vertex -> g2 vertex, -1 deleted, -2 unassigned
	used    []bool  // g2 vertex used

	// Signed label counters of the open part, indexed by label id: +1
	// per open g1 vertex (edge), -1 per open g2 vertex (edge). Filled by
	// openCounts once per expansion, together with their surplus and
	// deficit sums; childBound adjusts the sums per child.
	cv, ce     []int32
	vsum, esum histSum

	slab []node     // every generated node; parents are indices
	open []openItem // binary heap on f
}

var searchPool = sync.Pool{New: func() any { return new(astar) }}

// newSearch takes scratch from the pool and loads the pair into it:
// compact form, cost tables, processing order, blank assignment state.
func newSearch(g1, g2 *graph.Graph, cm CostModel) *astar {
	s := searchPool.Get().(*astar)
	s.Load(g1, g2)
	s.Densify()
	s.fillCosts(cm)
	s.order = s.order[:0]
	for u := 0; u < s.N1; u++ {
		s.order = append(s.order, int32(u))
	}
	// High-degree vertices first: they constrain the most edges, which
	// tightens g early and prunes better.
	order, deg := s.order, func(u int32) int32 { return s.Off1[u+1] - s.Off1[u] }
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && deg(order[j]) > deg(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.resetState()
	s.slab, s.open = s.slab[:0], s.open[:0]
	s.useH, s.limit = false, math.Inf(1)
	return s
}

// release hands the scratch back to the pool unless it grew past
// pairform.MaxPooledCells nodes or cells (a large uncapped pair).
func (s *astar) release() {
	if cap(s.slab) > pairform.MaxPooledCells || s.Oversized() {
		return
	}
	searchPool.Put(s)
}

// push and pop perform container/heap's exact sift sequence on the same
// strict f comparison, so equal-f nodes leave the open list in the order
// the interface-based heap released them.
func (s *astar) push(it openItem) {
	s.open = append(s.open, it)
	h := s.open
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *astar) pop() openItem {
	h := s.open
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].f < h[j].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.open = h[:n]
	return h[n]
}

// openNode appends a node to the slab and puts it on the open list.
func (s *astar) openNode(nd node, h float64) {
	s.slab = append(s.slab, nd)
	s.push(openItem{f: nd.g + h, n: int32(len(s.slab) - 1)})
}

// openChild opens the child of slab node parent that decides the next
// vertex as v at path cost g. A child that completes the assignment
// pays the completion cost; any other carries the heuristic (openCounts
// must have run for this expansion).
func (s *astar) openChild(parent int32, v int, g float64) {
	depth := s.slab[parent].depth + 1
	h := 0.0
	if int(depth) == s.N1 {
		g += s.completionCostAfter(v)
	} else if s.useH {
		h = s.childBound(v)
	}
	s.openNode(node{g: g, parent: parent, v: int32(v), depth: depth}, h)
}

func (s *astar) run(maxNodes int64) Result {
	n1, n2 := s.N1, s.N2
	if n1 == 0 {
		// Pure insertion of g2.
		d := s.completionCostAfter(-1)
		return Result{Distance: d, Mapping: []int{}, Exact: true, LowerBound: d}
	}

	rootH := 0.0
	if s.useH {
		rootH = s.heuristicAfter(-1, -1)
	}
	s.openNode(node{}, rootH)

	var nodes int64
	for len(s.open) > 0 {
		if maxNodes > 0 && nodes >= maxNodes {
			// The cheapest open f-value lower-bounds every completion
			// still reachable, so it is a certified floor of the true
			// distance even though the search gives up on exactness.
			return Result{Distance: math.Inf(1), Exact: false, LowerBound: s.open[0].f, Nodes: nodes}
		}
		top := s.pop()
		if top.f > s.limit {
			// top is the cheapest open node and its f-value lower-bounds
			// every completion still reachable, so no mapping fits under
			// the limit: the decision "distance > limit" is proven.
			return Result{Distance: top.f, AboveLimit: true, LowerBound: top.f, Nodes: nodes}
		}
		nodes++
		cur := s.slab[top.n]
		if int(cur.depth) == n1 {
			// Complete assignment: the completion cost for unused g2
			// vertices and untouched g2 edges is already included in g
			// via the final expansion step.
			return Result{Distance: cur.g, Mapping: s.extractMapping(top.n), Exact: true, LowerBound: cur.g, Nodes: nodes}
		}
		s.loadState(top.n)
		depth := int(cur.depth)
		u := int(s.order[depth])
		if s.useH && depth+1 < n1 {
			s.openCounts(u)
		}
		// Try assigning u to every unused g2 vertex.
		for v := 0; v < n2; v++ {
			if !s.used[v] {
				s.openChild(top.n, v, cur.g+s.assignCost(depth, u, v))
			}
		}
		// Or delete u.
		s.openChild(top.n, -1, cur.g+s.deleteCost(depth, u))
	}
	// Unreachable: the search space always contains the all-delete mapping.
	return Result{Distance: math.Inf(1), Nodes: nodes}
}

// resetState blanks the assignment state: nothing processed, nothing used.
func (s *astar) resetState() {
	s.mapping, s.used = pairform.Resize(s.mapping, s.N1), pairform.Resize(s.used, s.N2)
	for i := range s.mapping {
		s.mapping[i] = -2
	}
}

// loadState rebuilds the assignment state of slab node n by walking its
// parent chain.
func (s *astar) loadState(n int32) {
	s.resetState()
	for nd := s.slab[n]; nd.depth > 0; nd = s.slab[nd.parent] {
		s.mapping[s.order[nd.depth-1]] = nd.v
		if nd.v >= 0 {
			s.used[nd.v] = true
		}
	}
}

func (s *astar) extractMapping(n int32) []int {
	s.loadState(n)
	return s.currentMapping()
}

// currentMapping copies the assignment state out as a Result mapping,
// unassigned vertices counting as deleted.
func (s *astar) currentMapping() []int {
	out := make([]int, len(s.mapping))
	for i, v := range s.mapping {
		out[i] = int(max(v, -1))
	}
	return out
}

// assignCost is the incremental cost of mapping u -> v when the first
// depth vertices of the order are decided: the vertex substitution plus,
// for every decided g1 vertex w, the edge pair ({u,w}, {v,m(w)}) —
// substituted when both exist, deleted or inserted when only one does.
func (s *astar) assignCost(depth, u, v int) float64 {
	cost := s.vsub[int(s.VL1[u])*s.NV()+int(s.VL2[v])]
	row1, row2 := s.Adj1[u*s.N1:], s.Adj2[v*s.N2:]
	ne := s.NE()
	for _, w := range s.order[:depth] {
		l1, l2 := row1[w], int32(0)
		if mw := s.mapping[w]; mw >= 0 {
			l2 = row2[mw]
		}
		switch {
		case l1 != 0 && l2 != 0:
			cost += s.esub[int(l1)*ne+int(l2)]
		case l1 != 0:
			cost += s.edel[l1]
		case l2 != 0:
			cost += s.eins[l2]
		}
	}
	return cost
}

// deleteCost charges the deletion of u and of its edges toward decided
// vertices.
func (s *astar) deleteCost(depth, u int) float64 {
	cost := s.vdel[s.VL1[u]]
	row1 := s.Adj1[u*s.N1:]
	for _, w := range s.order[:depth] {
		if l1 := row1[w]; l1 != 0 {
			cost += s.edel[l1]
		}
	}
	return cost
}

// completionCostAfter charges, once all g1 vertices are processed, the
// insertion of every g2 vertex left unused and of every g2 edge with at
// least one unused endpoint. (g2 edges between two used vertices were
// charged during assignment.) The assignment state corresponds to the
// parent; v is the g2 vertex the final step consumes (-1 when the final
// g1 vertex was deleted).
func (s *astar) completionCostAfter(v int) float64 {
	cost := 0.0
	for x, l := range s.VL2 {
		if s.open2(x, v) {
			cost += s.vins[l]
		}
	}
	for _, e := range s.Edges2 {
		if s.open2(int(e.U), v) || s.open2(int(e.V), v) {
			cost += s.eins[e.L]
		}
	}
	return cost
}

// openCounts fills the label counters for the children of the node
// whose assignment state is loaded and whose next vertex is u: what
// stays open on the g1 side once u is decided, against everything still
// open on the g2 side. On a blank state, u = -1 counts both whole graphs.
// It also records the counters' surplus and deficit sums, which
// childBound adjusts per child.
func (s *astar) openCounts(u int) {
	s.cv, s.ce = pairform.Resize(s.cv, s.NV()), pairform.Resize(s.ce, s.NE())
	for w, l := range s.VL1 {
		if s.open1(w, u) {
			s.cv[l]++
		}
	}
	for x, l := range s.VL2 {
		if !s.used[x] {
			s.cv[l]--
		}
	}
	for _, e := range s.Edges1 {
		if s.open1(int(e.U), u) || s.open1(int(e.V), u) {
			s.ce[e.L]++
		}
	}
	for _, e := range s.Edges2 {
		if !s.used[e.U] || !s.used[e.V] {
			s.ce[e.L]--
		}
	}
	s.vsum, s.esum = histSums(s.cv), histSums(s.ce)
}

// childBound is the admissible histogram bound on what remains after
// the child additionally consumes g2 vertex v (-1: deletion, nothing
// consumed): the histogram distance between the labels of undecided g1
// vertices and unused g2 vertices, plus the same over edges with at
// least one open endpoint. v leaves the open side and takes with it the
// edges whose only open endpoint it was — those toward used vertices.
// Each of those is one counter increment, applied to openCounts' sums:
// O(degree of v), and the same integer as histBound(cv)+histBound(ce)
// recounted. ce is restored before returning; cv is not touched.
func (s *astar) childBound(v int) float64 {
	vs, es := s.vsum, s.esum
	if v >= 0 {
		vs.inc(s.cv[s.VL2[v]])
		nbrs := s.Nbrs2(v)
		for _, x := range nbrs {
			if s.used[x.W] {
				es.inc(s.ce[x.L])
				s.ce[x.L]++
			}
		}
		for _, x := range nbrs {
			if s.used[x.W] {
				s.ce[x.L]--
			}
		}
	}
	return float64(vs.bound() + es.bound())
}

// heuristicAfter is openCounts and childBound in one step, for callers
// that bound a single child.
func (s *astar) heuristicAfter(u, v int) float64 {
	s.openCounts(u)
	return s.childBound(v)
}

// open1 reports whether g1 vertex w is still undecided after u is
// decided.
func (s *astar) open1(w, u int) bool { return w != u && s.mapping[w] == -2 }

// open2 reports whether g2 vertex x is still unused after v is used.
func (s *astar) open2(x, v int) bool { return x != v && !s.used[x] }
