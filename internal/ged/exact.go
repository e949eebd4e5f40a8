package ged

import (
	"math"
	"sync"

	"skygraph/internal/graph"
	"skygraph/internal/pairform"
)

// Options tunes the exact search.
type Options struct {
	// Limit, when non-nil, turns the search into a decision procedure
	// for "distance > *Limit": the search starts with its incumbent
	// just above the limit, so every node whose f-value exceeds the
	// limit is pruned, and when nothing within the limit is left it
	// reports AboveLimit with Distance holding the smallest pruned
	// f-value — each one lower-bounds every completion below it, so
	// their minimum is a proven floor of the true distance. A goal
	// within the limit is returned exactly as without Limit. Ranked
	// queries use this to discard candidates whose distance provably
	// exceeds the current top-k threshold without paying for exactness.
	// Path costs are integers, so the search compares them with
	// floor(*Limit); nil, +Inf and NaN never stop it.
	Limit *float64
	// Stop, when closed, stops the search: it is polled at the first
	// expansion and then once every pollEvery expansions, and a stopped
	// run reports Exact=false and AboveLimit=false, proving nothing.
	// Queries pass their context's Done channel; nil never stops.
	Stop <-chan struct{}
}

// pollEvery is how many expansions pass between two polls of
// Options.Stop: a power of two, so the test is a mask.
const pollEvery = 1024

// Result reports a distance computation. Uniform edit costs are
// integers, reported as float64.
type Result struct {
	// Distance is the edit distance, or the proven floor of an
	// AboveLimit result; +Inf for a stopped run.
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
	// distance itself for exact results and, for a limit-stopped search,
	// the smallest pruned f-value. A stopped run and the engines that do
	// not search (Bipartite, Beam) leave it 0 — the trivial bound.
	LowerBound float64
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

// Distance returns the exact edit distance between g1 and g2.
func Distance(g1, g2 *graph.Graph) float64 {
	return Exact(g1, g2, Options{}).Distance
}

// Exact computes the edit distance by depth-first branch and bound over
// vertex assignments (see search).
func Exact(g1, g2 *graph.Graph, opts Options) Result {
	s := newSearch(g1, g2)
	if opts.Limit != nil {
		s.ub = pathLimit(*opts.Limit)
	}
	res := s.run(opts.Stop)
	s.release()
	return res
}

// pathLimit maps a decision limit onto integer path costs: an integer f
// exceeds l exactly when it exceeds floor(l). Limits at or past the
// int32 range clamp to its ends, and NaN, which no f exceeds, maps to
// the maximum like +Inf.
func pathLimit(l float64) int32 {
	switch {
	case !(l < math.MaxInt32):
		return math.MaxInt32
	case l < math.MinInt32:
		return math.MinInt32
	}
	return int32(math.Floor(l))
}

// child is one candidate decision for a node's next vertex: assign it
// to g2 vertex v (-1: delete it) at step cost c, reaching f = g + c + h.
type child struct{ f, c, v int32 }

// search is the state of one pair's depth-first branch and bound,
// shared by Exact and Beam; Bipartite and LowerBound borrow its form and
// counters. Everything here is scratch recycled through searchPool, so
// a warm search allocates only the mapping it returns.
//
// The search decides the g1 vertices in a fixed order, high degree
// first, each one assigned to an unused g2 vertex or deleted. The
// children of a node are tried cheapest f = g + h first; a complete
// assignment cheaper than the incumbent becomes the incumbent, and any
// node whose f reaches the incumbent is pruned. A node's children are
// scored without being applied (score); the one descended into is
// applied on descent and undone on return (decide, assign), so no node
// is ever stored.
//
// h is the anchor-aware histogram bound, kept incrementally by decide
// and assign, and read one step ahead by score:
// the label-histogram distance between undecided g1 vertices and
// unused g2 vertices, plus one edge-label histogram distance per class
// of the edges not yet charged. An edge between two undecided g1
// vertices can only be matched to one between two unused g2 vertices
// (class a); an edge from a decided g1 vertex w toward an undecided one
// can only be matched to one from m(w) toward an unused g2 vertex — or
// is deleted with w (class b, one per decided vertex). Every uncharged
// edge lies in exactly one class and no edit crosses classes, so the
// sum is admissible, and it is never below the one histogram distance
// over the pooled edges. Once every g1 vertex is decided, h is exactly
// the cost of inserting what is left of g2.
type search struct {
	pairform.Form

	order []int32 // g1 vertices, high degree first

	// Assignment state of the node being visited.
	mapping []int32 // g1 vertex -> g2 vertex, -1 deleted, -2 undecided
	used    []bool  // g2 vertex used
	inv     []int32 // g2 vertex -> the g1 vertex using it; mappingCost scratch

	// Signed label counters behind h, indexed by label id: +1 per g1
	// element, -1 per g2 element, with their surplus and deficit sums.
	// cv counts undecided g1 against unused g2 vertices, ca class (a)
	// edges, cb[w*NE()+l] class (b) edges of decided g1 vertex w, whose
	// sums are cbs[w]; cbBound is the sum of those classes' bounds.
	cv, ca, cb []int32
	vs, as     histSum
	cbs        []histSum
	cbBound    int32
	pend       []int32 // score's scratch, zero between calls

	ub    int32   // largest path cost still worth reaching
	low   int32   // smallest f-value left unexpanded
	found bool    // best holds a goal of cost ub+1
	best  []int32 // incumbent mapping
	kids  []child // kids[d*(N2+1):] are the children being tried at depth d
	nodes int64
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// loadPair takes scratch from the pool and loads the pair's compact,
// densified form into it.
func loadPair(g1, g2 *graph.Graph) *search {
	s := searchPool.Get().(*search)
	s.Load(g1, g2)
	s.Densify()
	return s
}

// newSearch loads the pair (loadPair) and readies a search over it:
// processing order, root assignment state and counters, no incumbent.
func newSearch(g1, g2 *graph.Graph) *search {
	s := loadPair(g1, g2)
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
	s.ub, s.low, s.found = math.MaxInt32, math.MaxInt32, false
	return s
}

// release hands the scratch back to the pool unless it grew past
// pairform.MaxPooledCells cells (a large pair).
func (s *search) release() {
	if s.Oversized() {
		return
	}
	searchPool.Put(s)
}

// resetState puts the search at its root: nothing decided, nothing
// used, the counters holding both whole graphs.
func (s *search) resetState() {
	s.mapping, s.used = pairform.Resize(s.mapping, s.N1), pairform.Resize(s.used, s.N2)
	s.inv = pairform.Resize(s.inv, s.N2)
	for i := range s.mapping {
		s.mapping[i] = -2
	}
	for i := range s.inv {
		s.inv[i] = -1
	}
	s.rootCounts()
	s.cb, s.cbs = pairform.Resize(s.cb, s.N1*s.NE()), pairform.Resize(s.cbs, s.N1)
	s.cbBound = 0
	s.pend = pairform.Resize(s.pend, s.NE())
}

// rootCounts fills the vertex and class (a) counters for a blank
// assignment: every vertex and edge of both graphs.
func (s *search) rootCounts() {
	s.cv, s.ca = pairform.Resize(s.cv, s.NV()), pairform.Resize(s.ca, s.NE())
	for _, l := range s.VL1 {
		s.cv[l]++
	}
	for _, l := range s.VL2 {
		s.cv[l]--
	}
	for _, e := range s.Edges1 {
		s.ca[e.L]++
	}
	for _, e := range s.Edges2 {
		s.ca[e.L]--
	}
	s.vs, s.as = histSums(s.cv), histSums(s.ca)
}

// h is the bound on the cost still to pay from the current state.
func (s *search) h() int32 { return s.vs.bound() + s.as.bound() + s.cbBound }

// decide takes the undecided g1 vertex u out of the open part when d is
// +1 and undoes exactly that when d is -1, keeping the counters behind
// h current in O(deg u). It is the half of deciding u that does not
// depend on u's image, so an expansion runs it once for all of u's
// children; assign completes the decision.
func (s *search) decide(u int, d int32) {
	s.vs.add(s.cv, s.VL1[u], -d)
	for _, x := range s.Nbrs1(u) {
		if s.mapping[x.W] == -2 {
			// An open g1 edge moves from class (a) to u's class.
			s.as.add(s.ca, x.L, -d)
			s.classAdd(u, x.L, d)
		} else {
			// The edge to decided w is charged by the step (score)
			// and leaves w's class.
			s.classAdd(int(x.W), x.L, -d)
		}
	}
}

// assign maps the decided g1 vertex u to g2 vertex v (-1: deletes it)
// when d is +1 and undoes exactly that when d is -1, keeping the
// counters behind h current in O(deg v). What the step adds to the
// path is score's to compute: the search scores a child before it
// applies it.
func (s *search) assign(u, v int, d int32) {
	if v < 0 {
		if d > 0 {
			s.mapping[u] = -1
		} else {
			s.mapping[u] = -2
		}
		return
	}
	if d > 0 {
		s.mapping[u], s.used[v], s.inv[v] = int32(v), true, int32(u)
	}
	s.vs.add(s.cv, s.VL2[v], d)
	for _, x := range s.Nbrs2(v) {
		if w := s.inv[x.W]; w >= 0 {
			// The edge to used x is charged by the step and leaves the
			// class of x's preimage.
			s.classAdd(int(w), x.L, d)
		} else {
			// An open g2 edge moves from class (a) to u's class.
			s.as.add(s.ca, x.L, d)
			s.classAdd(u, x.L, -d)
		}
	}
	if d < 0 {
		s.mapping[u], s.used[v], s.inv[v] = -2, false, -1
	}
}

// score returns the cost deciding u as v (-1: deleting it) adds to the
// path, and h after that step, reading the counters without writing
// them: the decided g1 vertex u's children are scored with it, and
// only the one descended into is applied (assign). The cost is the
// vertex substitution or deletion, and every edge the step completes
// between u and a decided vertex on either side — substituted when
// both exist, deleted or inserted when one does. Absent edges read as
// id 0, so one mismatch covers all three. The step moves one vertex
// counter; one counter of class (a) and of u's own class per unused g2
// neighbour of v, where neighbours sharing an edge label move the same
// counters again (pend counts the moves made so far per label); and
// one counter in the class of each used neighbour's preimage, a
// different class for each.
func (s *search) score(u, v int) (c, h int32) {
	if v < 0 {
		c = 1
		for _, x := range s.Nbrs1(u) {
			if s.mapping[x.W] != -2 {
				c++
			}
		}
		return c, s.h()
	}
	vs, as, cu := s.vs, s.as, s.cbs[u]
	cbBound := s.cbBound - cu.bound()
	c = mismatch(s.VL1[u], s.VL2[v])
	vs.move(s.cv[s.VL2[v]], 1)
	row2 := s.Adj2[v*s.N2 : (v+1)*s.N2]
	for _, x := range s.Nbrs1(u) {
		switch mw := s.mapping[x.W]; {
		case mw >= 0:
			c += mismatch(x.L, row2[mw])
		case mw == -1:
			c++
		}
	}
	ne := int32(s.NE())
	row1, cbu := s.Adj1[u*s.N1:(u+1)*s.N1], s.cb[int32(u)*ne:int32(u+1)*ne]
	nbrs := s.Nbrs2(v)
	for _, x := range nbrs {
		w := s.inv[x.W]
		if w < 0 {
			p := s.pend[x.L]
			s.pend[x.L] = p + 1
			as.move(s.ca[x.L]+p, 1)
			cu.move(cbu[x.L]-p, -1)
			continue
		}
		if row1[w] == 0 {
			c++
		}
		hw := s.cbs[w]
		cbBound -= hw.bound()
		hw.move(s.cb[w*ne+x.L], 1)
		cbBound += hw.bound()
	}
	for _, x := range nbrs {
		s.pend[x.L] = 0
	}
	return c, vs.bound() + as.bound() + cbBound + cu.bound()
}

// classAdd moves counter l of decided vertex w's class by d, keeping
// cbBound current.
func (s *search) classAdd(w int, l, d int32) {
	h := &s.cbs[w]
	s.cbBound -= h.bound()
	h.add(s.cb, int32(w*s.NE())+l, d)
	s.cbBound += h.bound()
}

// run searches from the root and reports the result, stopping once
// stop is closed (Options.Stop).
func (s *search) run(stop <-chan struct{}) Result {
	if s.N1 == 0 {
		// Nothing to decide: the distance is the insertion of g2,
		// returned exact whatever the limit.
		d := float64(s.h())
		return Result{Distance: d, Mapping: []int{}, Exact: true, LowerBound: d}
	}
	s.nodes = 0
	s.kids = pairform.Resize(s.kids, s.N1*(s.N2+1))
	s.best = pairform.Resize(s.best, s.N1)
	if f := s.h(); f > s.ub {
		s.low = f
	} else if !s.expand(0, 0, f, stop) {
		return Result{Distance: math.Inf(1), Nodes: s.nodes}
	}
	if !s.found {
		// Every node was pruned above the limit: the smallest pruned
		// f-value lower-bounds every completion, so the decision
		// "distance > limit" is proven.
		f := float64(s.low)
		return Result{Distance: f, AboveLimit: true, LowerBound: f, Nodes: s.nodes}
	}
	d := float64(s.ub + 1)
	return Result{Distance: d, Mapping: s.bestMapping(), Exact: true, LowerBound: d, Nodes: s.nodes}
}

// stopped polls the stop signal. The search passes it down expand's
// calls rather than keeping it in its pooled state: a stored channel
// would make the whole Options value escape, Limit's target included.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// expand visits the node at depth (its first depth vertices decided,
// path cost g, f-value f ≤ ub): it scores the children deciding the
// next vertex (score, which applies none of them), sorts them by f and
// descends into each in turn, applying it, while its f stays within
// the incumbent; a child that completes the assignment
// is a goal and becomes the incumbent. It returns false when the stop
// signal stopped the search.
func (s *search) expand(depth int, g, f int32, stop <-chan struct{}) bool {
	if s.nodes&(pollEvery-1) == 0 && stopped(stop) {
		return false
	}
	s.nodes++
	u := int(s.order[depth])
	s.decide(u, 1)
	kids := s.kids[depth*(s.N2+1) : depth*(s.N2+1)]
	add := func(v int) {
		c, h := s.score(u, v)
		k := child{f: g + c + h, c: c, v: int32(v)}
		// Insertion keeps equal f-values in generation order.
		kids = append(kids, k)
		for j := len(kids) - 1; j > 0 && kids[j-1].f > k.f; j-- {
			kids[j], kids[j-1] = kids[j-1], k
		}
	}
	for v := 0; v < s.N2; v++ {
		if !s.used[v] {
			add(v)
		}
	}
	add(-1)
	ok, last := true, depth+1 == s.N1
	for _, k := range kids {
		if k.f > s.ub {
			// Sorted: this child and every later one are pruned.
			s.low = min(s.low, k.f)
			break
		}
		if last {
			// A goal: its f is its exact cost, and no later sibling
			// costs less.
			copy(s.best, s.mapping)
			s.best[u] = k.v
			s.ub, s.found = k.f-1, true
			break
		}
		v := int(k.v)
		s.assign(u, v, 1)
		ok = s.expand(depth+1, g+k.c, k.f, stop)
		s.assign(u, v, -1)
		if !ok {
			break
		}
	}
	s.decide(u, -1)
	return ok
}

// bestMapping copies the incumbent out as a Result mapping.
func (s *search) bestMapping() []int {
	out := make([]int, len(s.best))
	for i, v := range s.best {
		out[i] = int(v)
	}
	return out
}
