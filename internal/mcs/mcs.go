// Package mcs computes the maximum common subgraph of two labeled graphs in
// the sense of the paper's Definition 7: the largest *connected* subgraph of
// g1 that is subgraph-isomorphic to g2. Because every similarity measure in
// the paper consumes |mcs| = the number of common *edges* (Definitions
// 9–10), the search maximizes the number of common edges.
//
// Two engines are provided:
//
//   - Exact: a McGregor-style branch-and-bound over vertex correspondences
//     that grows a connected common edge subgraph (the default for the
//     paper-scale graphs).
//   - Greedy: a randomized best-first heuristic with restarts, for large
//     inputs.
package mcs

import (
	"math/rand"
	"sync"

	"skygraph/internal/graph"
)

// Mapping is a common-subgraph witness: pairs of corresponding vertices
// (U in g1, V in g2) and the number of common edges they realize.
type Mapping struct {
	Pairs []Pair
	Edges int
}

// Pair couples vertex U of g1 with vertex V of g2.
type Pair struct{ U, V int }

// Options tunes the exact search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound node expansions; 0 means
	// unlimited. When the cap is hit the search degrades gracefully into an
	// anytime algorithm and returns the best mapping found so far together
	// with Exhausted=false.
	MaxNodes int64
	// Need, when > 0, turns the search into a decision procedure for
	// "|mcs| >= Need": branches that cannot reach Need common edges are
	// pruned regardless of the incumbent, and the search stops the
	// moment any mapping reaches Need edges. If the pruned space is
	// exhausted without the cap firing and without reaching Need, the
	// result reports ProvedBelowNeed — a certificate that |mcs| < Need.
	// The returned Mapping is then only decision-grade (the aggressive
	// pruning may have skipped the true maximum, and no GreedyLB floor
	// is applied), so Exhausted is never set when Need > 0; ranked
	// queries use this to discard candidates whose distance provably
	// exceeds the current threshold, re-running a plain search for
	// candidates that survive.
	Need int
}

// Result reports the outcome of an exact search.
type Result struct {
	Mapping Mapping
	// Exhausted is true when the search space was fully explored, i.e. the
	// mapping is provably maximum. Never set when Options.Need > 0: the
	// decision-grade pruning forfeits maximality.
	Exhausted bool
	// ProvedBelowNeed is true when the Need-pruned search space was
	// fully explored without any mapping reaching Options.Need common
	// edges: a certificate that |mcs| < Need. Only possible when
	// Options.Need > 0 and the node cap did not fire.
	ProvedBelowNeed bool
	// Nodes is the number of search-tree expansions performed.
	Nodes int64
}

// Size returns |mcs(g1,g2)| — the number of edges of a maximum common
// connected subgraph — using the exact engine with no node cap.
func Size(g1, g2 *graph.Graph) int {
	return Exact(g1, g2, Options{}).Mapping.Edges
}

// Exact runs the branch-and-bound search and returns the best mapping.
// When the node cap truncates a plain search (Need == 0), the result is
// additionally floored by the deterministic GreedyLB mapping — like
// ged.Exact degrading to its bipartite upper bound, the capped search
// never returns a worse witness than the cheap greedy one, so GreedyLB
// is a valid lower bound on the value Exact reports, capped or not. A
// decision run (Need > 0) skips the floor: its only output is the
// ProvedBelowNeed verdict, which the floor cannot change.
func Exact(g1, g2 *graph.Graph, opts Options) Result {
	// Search from the smaller graph for a smaller branching factor.
	orig1, orig2 := g1, g2
	swapped := false
	if g1.Order() > g2.Order() {
		g1, g2 = g2, g1
		swapped = true
	}
	s := searcherPool.Get().(*searcher)
	s.g1, s.g2, s.maxNodes = g1, g2, opts.MaxNodes
	s.need = opts.Need
	s.run()
	m := Mapping{Pairs: s.bestPairs, Edges: s.bestEdges}
	res := Result{Exhausted: !s.capped && opts.Need == 0, Nodes: s.nodes}
	if opts.Need > 0 {
		res.ProvedBelowNeed = !s.capped && !s.decided
	}
	s.release()
	if swapped {
		for i := range m.Pairs {
			m.Pairs[i].U, m.Pairs[i].V = m.Pairs[i].V, m.Pairs[i].U
		}
	}
	if !res.Exhausted && opts.Need == 0 {
		if lb := GreedyLB(orig1, orig2); lb.Edges > m.Edges {
			m = lb
		}
	}
	res.Mapping = m
	return res
}

type searcher struct {
	g1, g2   *graph.Graph
	maxNodes int64
	nodes    int64
	capped   bool
	need     int  // decision threshold (0 = plain maximization)
	decided  bool // a mapping with >= need edges was found

	m1 []int // g1 vertex -> g2 vertex or -1
	m2 []int // g2 vertex -> g1 vertex or -1

	// e1, e2 cache graph.Edges() once per search: bound() consults the
	// edge lists on every expansion and Edges() allocates per call.
	e1, e2 []graph.Edge

	curPairs  []Pair
	curEdges  int
	bestPairs []Pair
	bestEdges int
}

// searcherPool recycles searcher scratch (mapping arrays, cached edge
// lists, the current-pairs stack) across Exact calls; pair evaluation
// runs one Exact per database graph, so the churn adds up.
var searcherPool = sync.Pool{New: func() any { return &searcher{} }}

// release resets the searcher (dropping references into the graphs and
// the escaped best mapping) and returns it to the pool.
func (s *searcher) release() {
	s.g1, s.g2 = nil, nil
	s.nodes, s.capped = 0, false
	s.need, s.decided = 0, false
	s.curPairs = s.curPairs[:0]
	s.curEdges = 0
	s.bestPairs, s.bestEdges = nil, 0
	s.e1, s.e2 = nil, nil
	searcherPool.Put(s)
}

// resizeNeg returns buf resized to n, reusing its backing array when
// large enough, with every element set to -1.
func resizeNeg(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

func (s *searcher) run() {
	n1, n2 := s.g1.Order(), s.g2.Order()
	if n1 == 0 || n2 == 0 {
		return
	}
	s.m1 = resizeNeg(s.m1, n1)
	s.m2 = resizeNeg(s.m2, n2)
	s.e1, s.e2 = s.g1.Edges(), s.g2.Edges()
	// Try every label-compatible seed pair. To avoid rediscovering the same
	// subgraph from different seeds, seeds are processed in order and a
	// later seed's search forbids earlier seed u-vertices as members:
	// any connected common subgraph has a minimal g1-vertex, so rooting the
	// enumeration at that vertex covers all candidates exactly once.
	for u := 0; u < n1 && !s.capped && !s.decided; u++ {
		for v := 0; v < n2 && !s.capped && !s.decided; v++ {
			if s.g1.VertexLabel(u) != s.g2.VertexLabel(v) {
				continue
			}
			s.m1[u], s.m2[v] = v, u
			s.curPairs = append(s.curPairs, Pair{U: u, V: v})
			s.extend(u)
			s.curPairs = s.curPairs[:0]
			s.m1[u], s.m2[v] = -1, -1
		}
	}
	if s.bestPairs == nil && n1 > 0 && n2 > 0 {
		// No label-compatible vertex pair at all: empty common subgraph.
		s.bestPairs = []Pair{}
	}
}

// minSeed is the g1 vertex of the first pair (the root); extensions only use
// g1 vertices greater than the root to break symmetry across seeds.
func (s *searcher) extend(root int) {
	if s.maxNodes > 0 && s.nodes >= s.maxNodes {
		s.capped = true
		return
	}
	s.nodes++
	if s.curEdges > s.bestEdges || (s.bestPairs == nil && len(s.curPairs) > 0) {
		s.bestEdges = s.curEdges
		s.bestPairs = append([]Pair(nil), s.curPairs...)
	}
	if s.need > 0 && s.bestEdges >= s.need {
		// Decision reached: a common subgraph with Need edges exists.
		s.decided = true
		return
	}
	// Decision-grade pruning: with a Need threshold, branches that
	// cannot reach Need edges are irrelevant even when they could beat
	// the incumbent.
	floor := s.bestEdges
	if s.need > 0 && s.need-1 > floor {
		floor = s.need - 1
	}
	if s.bound() <= floor {
		return
	}
	// Candidate extensions: unmapped g1 vertex u > root adjacent to a mapped
	// vertex, paired with an unmapped g2 vertex v sharing its label, such
	// that at least one common edge to the mapped part is gained
	// (connectivity of the common edge subgraph).
	for u := root + 1; u < s.g1.Order(); u++ {
		if s.m1[u] >= 0 {
			continue
		}
		if !s.adjacentToMapped(u) {
			continue
		}
		for v := 0; v < s.g2.Order(); v++ {
			if s.m2[v] >= 0 || s.g1.VertexLabel(u) != s.g2.VertexLabel(v) {
				continue
			}
			gain := s.edgeGain(u, v)
			if gain == 0 {
				continue
			}
			s.m1[u], s.m2[v] = v, u
			s.curPairs = append(s.curPairs, Pair{U: u, V: v})
			s.curEdges += gain
			s.extend(root)
			s.curEdges -= gain
			s.curPairs = s.curPairs[:len(s.curPairs)-1]
			s.m1[u], s.m2[v] = -1, -1
			if s.capped || s.decided {
				return
			}
		}
	}
}

func (s *searcher) adjacentToMapped(u int) bool {
	for w := range s.g1.NeighborSet(u) {
		if s.m1[w] >= 0 {
			return true
		}
	}
	return false
}

// edgeGain counts the common edges gained by mapping u -> v: edges of g1
// between u and an already-mapped vertex w whose counterpart edge
// (v, m1[w]) exists in g2 with the same label.
func (s *searcher) edgeGain(u, v int) int {
	gain := 0
	for w, lbl := range s.g1.NeighborSet(u) {
		mw := s.m1[w]
		if mw < 0 {
			continue
		}
		if hl, ok := s.g2.EdgeLabel(v, mw); ok && hl == lbl {
			gain++
		}
	}
	return gain
}

// bound returns an optimistic upper bound on the total common edges
// reachable from the current state: current edges plus the smaller of the
// factor edges still touchable (at least one endpoint unmapped) on each
// side. Edges between two mapped vertices are already decided.
func (s *searcher) bound() int {
	rem1 := 0
	for _, e := range s.e1 {
		if s.m1[e.U] < 0 || s.m1[e.V] < 0 {
			rem1++
		}
	}
	rem2 := 0
	for _, e := range s.e2 {
		if s.m2[e.U] < 0 || s.m2[e.V] < 0 {
			rem2++
		}
	}
	if rem2 < rem1 {
		rem1 = rem2
	}
	return s.curEdges + rem1
}

// greedyLBSeeds caps how many seed pairs GreedyLB grows a subgraph
// from. A handful keeps the bound cheap (it runs once per candidate in
// the filter phase) while escaping the worst single-seed starts.
const greedyLBSeeds = 8

// greedyLBSeedsPerVertex caps seeds sharing the same g1 root, so a
// uniform-label graph (every pair compatible) still roots its seeds at
// distinct g1 vertices instead of burning the whole budget on vertex 0.
const greedyLBSeedsPerVertex = 2

// GreedyLB is the deterministic greedy lower bound on |mcs(g1,g2)|: it
// grows a connected common subgraph from up to greedyLBSeeds
// label-compatible vertex pairs — taken in lexicographic order, at
// most greedyLBSeedsPerVertex per g1 root — and keeps the best. Unlike
// Greedy it takes no randomness, so repeated calls on the same pair
// agree — the property the filter-and-refine pipeline needs to use the
// value as a certified floor of Exact's capped results.
func GreedyLB(g1, g2 *graph.Graph) Mapping {
	best := Mapping{Pairs: []Pair{}}
	tried := 0
	for u := 0; u < g1.Order() && tried < greedyLBSeeds; u++ {
		perRoot := 0
		for v := 0; v < g2.Order() && tried < greedyLBSeeds && perRoot < greedyLBSeedsPerVertex; v++ {
			if g1.VertexLabel(u) != g2.VertexLabel(v) {
				continue
			}
			tried++
			perRoot++
			m := greedyFrom(g1, g2, Pair{U: u, V: v})
			if m.Edges > best.Edges || (len(best.Pairs) == 0 && len(m.Pairs) > 0) {
				best = m
			}
		}
	}
	return best
}

// Greedy grows a connected common subgraph by repeatedly taking the
// extension pair with the largest immediate edge gain, restarting from
// `restarts` random label-compatible seeds and keeping the best result.
// It is a heuristic: the returned edge count is a lower bound on |mcs|.
func Greedy(g1, g2 *graph.Graph, restarts int, rng *rand.Rand) Mapping {
	if restarts < 1 {
		restarts = 1
	}
	var seeds []Pair
	for u := 0; u < g1.Order(); u++ {
		for v := 0; v < g2.Order(); v++ {
			if g1.VertexLabel(u) == g2.VertexLabel(v) {
				seeds = append(seeds, Pair{U: u, V: v})
			}
		}
	}
	if len(seeds) == 0 {
		return Mapping{Pairs: []Pair{}}
	}
	best := Mapping{Pairs: []Pair{}}
	for r := 0; r < restarts; r++ {
		seed := seeds[rng.Intn(len(seeds))]
		m := greedyFrom(g1, g2, seed)
		if m.Edges > best.Edges || (len(best.Pairs) == 0 && len(m.Pairs) > 0) {
			best = m
		}
	}
	return best
}

func greedyFrom(g1, g2 *graph.Graph, seed Pair) Mapping {
	m1 := make([]int, g1.Order())
	m2 := make([]int, g2.Order())
	for i := range m1 {
		m1[i] = -1
	}
	for i := range m2 {
		m2[i] = -1
	}
	m1[seed.U], m2[seed.V] = seed.V, seed.U
	pairs := []Pair{seed}
	edges := 0
	for {
		bestGain, bestU, bestV := 0, -1, -1
		for u := 0; u < g1.Order(); u++ {
			if m1[u] >= 0 {
				continue
			}
			for v := 0; v < g2.Order(); v++ {
				if m2[v] >= 0 || g1.VertexLabel(u) != g2.VertexLabel(v) {
					continue
				}
				gain := 0
				for w, lbl := range g1.NeighborSet(u) {
					if mw := m1[w]; mw >= 0 {
						if hl, ok := g2.EdgeLabel(v, mw); ok && hl == lbl {
							gain++
						}
					}
				}
				if gain > bestGain {
					bestGain, bestU, bestV = gain, u, v
				}
			}
		}
		if bestU < 0 {
			break
		}
		m1[bestU], m2[bestV] = bestV, bestU
		pairs = append(pairs, Pair{U: bestU, V: bestV})
		edges += bestGain
	}
	return Mapping{Pairs: pairs, Edges: edges}
}
