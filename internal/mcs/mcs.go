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
//     inputs; GreedyLB is its deterministic form.
//
// Every engine runs on the compact pair form of package pairform, the
// one the GED kernel uses: labels are int32 ids, a vertex's neighbours a
// slice, and an edge test one read of a dense adjacency row. Graphs are
// read only while the form loads; the form and all search state live in
// pooled scratch, so a warm Exact allocates only the mapping it returns.
package mcs

import (
	"math/rand"
	"sync"

	"skygraph/internal/graph"
	"skygraph/internal/pairform"
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
	// Need, when > 0, turns the search into a decision procedure for
	// "|mcs| >= Need": branches that cannot reach Need common edges are
	// pruned regardless of the incumbent, and the search stops the
	// moment any mapping reaches Need edges. If the pruned space is
	// exhausted without reaching Need, the result reports
	// ProvedBelowNeed — a certificate that |mcs| < Need. The returned
	// Mapping is then only decision-grade (the aggressive pruning may
	// have skipped the true maximum), so Exhausted is never set when
	// Need > 0; ranked queries use this to discard candidates whose
	// distance provably exceeds the current threshold, re-running a
	// plain search for candidates that survive.
	Need int
	// Stop, when closed, stops the search: it is polled at the first
	// expansion and then once every pollEvery expansions, and a stopped
	// run reports Exhausted=false and ProvedBelowNeed=false, proving
	// nothing. Queries pass their context's Done channel; nil never
	// stops.
	Stop <-chan struct{}
}

// pollEvery is how many expansions pass between two polls of
// Options.Stop: a power of two, so the test is a mask.
const pollEvery = 1024

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
	// Options.Need > 0.
	ProvedBelowNeed bool
	// Nodes is the number of search-tree expansions performed.
	Nodes int64
}

// Size returns |mcs(g1,g2)| — the number of edges of a maximum common
// connected subgraph — using the exact engine.
func Size(g1, g2 *graph.Graph) int {
	return Exact(g1, g2, Options{}).Mapping.Edges
}

// Exact runs the branch-and-bound search and returns the best mapping.
func Exact(g1, g2 *graph.Graph, opts Options) Result {
	// Search from the smaller graph for a smaller branching factor.
	swapped := g1.Order() > g2.Order()
	s := newSearcher(g1, g2, swapped)
	s.need, s.stop = opts.Need, opts.Stop
	s.run()
	res := Result{Exhausted: !s.halted && opts.Need == 0, Nodes: s.nodes}
	if opts.Need > 0 {
		res.ProvedBelowNeed = !s.halted
	}
	if s.N1 > 0 && s.N2 > 0 {
		// An empty graph leaves the mapping nil; a pair without one
		// label-compatible seed gets an empty one.
		res.Mapping = s.bestMapping(swapped)
	}
	s.release()
	return res
}

// searcher is the state of one search: the pair's form and everything
// the engines mutate, recycled through searcherPool.
type searcher struct {
	pairform.Form

	nodes int64
	need  int             // decision threshold (0 = plain maximization)
	stop  <-chan struct{} // Options.Stop
	// halted is set when the search ends early: a mapping reached need
	// edges, or the stop signal was closed.
	halted bool

	m1 []int32 // g1 vertex -> g2 vertex or -1
	m2 []int32 // g2 vertex -> g1 vertex or -1
	// near1[u], near2[v] count a vertex's mapped neighbours: the edges
	// mapping it would put between two mapped vertices.
	near1, near2 []int32
	// byLabel[byLabelOff[l]:byLabelOff[l+1]] are g2's vertices with label
	// id l, ascending: the candidates of any g1 vertex labelled l.
	byLabel, byLabelOff []int32

	// inner1, inner2 count the edges of g1 (g2) with both endpoints
	// mapped. The bound needs the rest; like near1 and near2 they are
	// maintained on every map and unmap instead of recounted per node.
	inner1, inner2 int

	cur      []Pair
	curEdges int
	// best is a copy of the best mapping so far; the caller's copy is
	// made once, on return.
	best      []Pair
	bestEdges int
	haveBest  bool
}

var searcherPool = sync.Pool{New: func() any { return new(searcher) }}

// newSearcher takes scratch from the pool and loads the pair into it,
// g2 first when swapped, with a blank search state.
func newSearcher(g1, g2 *graph.Graph, swapped bool) *searcher {
	s := searcherPool.Get().(*searcher)
	if swapped {
		g1, g2 = g2, g1
	}
	s.Load(g1, g2)
	s.Densify()
	s.bucketLabels()
	s.nodes, s.need, s.stop, s.halted = 0, 0, nil, false
	s.best, s.bestEdges, s.haveBest = s.best[:0], 0, false
	return s
}

// release hands the scratch back to the pool unless the form grew past
// pairform.MaxPooledCells (a large pair).
func (s *searcher) release() {
	if s.Oversized() {
		return
	}
	searcherPool.Put(s)
}

// bucketLabels fills byLabel: a counting sort of g2's vertices by label.
func (s *searcher) bucketLabels() {
	off := pairform.Resize(s.byLabelOff, s.NV()+1)
	for _, l := range s.VL2 {
		off[l+1]++
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	s.byLabel = pairform.Resize(s.byLabel, s.N2)
	for v, l := range s.VL2 {
		s.byLabel[off[l]] = int32(v)
		off[l]++
	}
	// Each off[l] now holds the end of bucket l, the start of l+1.
	copy(off[1:], off)
	off[0] = 0
	s.byLabelOff = off
}

// candidates returns g2's vertices with g1 vertex u's label, ascending.
func (s *searcher) candidates(u int) []int32 {
	l := s.VL1[u]
	return s.byLabel[s.byLabelOff[l]:s.byLabelOff[l+1]]
}

// blank unmaps every vertex.
func (s *searcher) blank() {
	s.m1, s.m2 = pairform.Resize(s.m1, s.N1), pairform.Resize(s.m2, s.N2)
	s.near1, s.near2 = pairform.Resize(s.near1, s.N1), pairform.Resize(s.near2, s.N2)
	for i := range s.m1 {
		s.m1[i] = -1
	}
	for i := range s.m2 {
		s.m2[i] = -1
	}
	s.inner1, s.inner2 = 0, 0
	s.cur, s.curEdges = s.cur[:0], 0
}

// bestMapping copies the best mapping out for the caller, with U and V
// swapped back if the form was loaded swapped; it is empty when none
// was recorded.
func (s *searcher) bestMapping(swapped bool) Mapping {
	out := make([]Pair, len(s.best))
	for i, p := range s.best {
		if swapped {
			p.U, p.V = p.V, p.U
		}
		out[i] = p
	}
	return Mapping{Pairs: out, Edges: s.bestEdges}
}

// mapPair maps u -> v, which closes gain common edges.
func (s *searcher) mapPair(u, v, gain int) {
	s.m1[u], s.m2[v] = int32(v), int32(u)
	s.cur = append(s.cur, Pair{U: u, V: v})
	s.curEdges += gain
	s.inner1 += int(s.near1[u])
	s.inner2 += int(s.near2[v])
	for _, nb := range s.Nbrs1(u) {
		s.near1[nb.W]++
	}
	for _, nb := range s.Nbrs2(v) {
		s.near2[nb.W]++
	}
}

// unmapPair undoes mapPair(u, v, gain); u and v must be the last pair
// mapped, so near1[u] and near2[v] are what they were when it ran.
func (s *searcher) unmapPair(u, v, gain int) {
	for _, nb := range s.Nbrs1(u) {
		s.near1[nb.W]--
	}
	for _, nb := range s.Nbrs2(v) {
		s.near2[nb.W]--
	}
	s.m1[u], s.m2[v] = -1, -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= gain
	s.inner1 -= int(s.near1[u])
	s.inner2 -= int(s.near2[v])
}

func (s *searcher) run() {
	if s.N1 == 0 || s.N2 == 0 {
		return
	}
	s.blank()
	// Try every label-compatible seed pair. To avoid rediscovering the same
	// subgraph from different seeds, seeds are processed in order and a
	// later seed's search forbids earlier seed u-vertices as members:
	// any connected common subgraph has a minimal g1-vertex, so rooting the
	// enumeration at that vertex covers all candidates exactly once.
	for u := 0; u < s.N1 && !s.halted; u++ {
		for _, v := range s.candidates(u) {
			if s.halted {
				break
			}
			s.mapPair(u, int(v), 0)
			s.extend(u)
			s.unmapPair(u, int(v), 0)
		}
	}
}

// extend expands the node whose mapping is loaded. root is the g1
// vertex of the seed pair; extensions only use g1 vertices greater than
// the root to break symmetry across seeds.
func (s *searcher) extend(root int) {
	if s.nodes&(pollEvery-1) == 0 && s.stopped() {
		s.halted = true
		return
	}
	s.nodes++
	s.record()
	if s.need > 0 && s.bestEdges >= s.need {
		// Decision reached: a common subgraph with Need edges exists.
		s.halted = true
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
	for u := root + 1; u < s.N1; u++ {
		if s.m1[u] >= 0 || s.near1[u] == 0 {
			continue
		}
		for _, v := range s.candidates(u) {
			if s.m2[v] >= 0 {
				continue
			}
			gain := s.edgeGain(u, int(v))
			if gain == 0 {
				continue
			}
			s.mapPair(u, int(v), gain)
			s.extend(root)
			s.unmapPair(u, int(v), gain)
			if s.halted {
				return
			}
		}
	}
}

// stopped polls the stop signal.
func (s *searcher) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// record keeps the current mapping as the best when it has more edges
// than the best, or when it is the first.
func (s *searcher) record() {
	if s.curEdges > s.bestEdges || !s.haveBest {
		s.bestEdges = s.curEdges
		s.best = append(s.best[:0], s.cur...)
		s.haveBest = true
	}
}

// edgeGain counts the common edges gained by mapping u -> v: edges of g1
// between u and an already-mapped vertex w whose counterpart edge
// (v, m1[w]) exists in g2 with the same label.
func (s *searcher) edgeGain(u, v int) int {
	row := s.Adj2[v*s.N2 : (v+1)*s.N2]
	gain := 0
	for _, nb := range s.Nbrs1(u) {
		if mw := s.m1[nb.W]; mw >= 0 && row[mw] == nb.L {
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
	return s.curEdges + min(len(s.Edges1)-s.inner1, len(s.Edges2)-s.inner2)
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
// agree.
func GreedyLB(g1, g2 *graph.Graph) Mapping {
	s := newSearcher(g1, g2, false)
	defer s.release()
	tried := 0
	for u := 0; u < s.N1 && tried < greedyLBSeeds; u++ {
		cands := s.candidates(u)
		for _, v := range cands[:min(len(cands), greedyLBSeedsPerVertex)] {
			if tried == greedyLBSeeds {
				break
			}
			tried++
			s.greedyFrom(Pair{U: u, V: int(v)})
		}
	}
	return s.bestMapping(false)
}

// Greedy grows a connected common subgraph by repeatedly taking the
// extension pair with the largest immediate edge gain, restarting from
// `restarts` random label-compatible seeds and keeping the best result.
// It is a heuristic: the returned edge count is a lower bound on |mcs|.
func Greedy(g1, g2 *graph.Graph, restarts int, rng *rand.Rand) Mapping {
	if restarts < 1 {
		restarts = 1
	}
	s := newSearcher(g1, g2, false)
	defer s.release()
	var seeds []Pair
	for u := 0; u < s.N1; u++ {
		for _, v := range s.candidates(u) {
			seeds = append(seeds, Pair{U: u, V: int(v)})
		}
	}
	if len(seeds) == 0 {
		return Mapping{Pairs: []Pair{}}
	}
	for r := 0; r < restarts; r++ {
		s.greedyFrom(seeds[rng.Intn(len(seeds))])
	}
	return s.bestMapping(false)
}

// greedyFrom grows a subgraph from seed, at each step taking the
// extension with the largest gain (the first in (u, v) order on ties),
// and records it as the best when it beats the best so far.
func (s *searcher) greedyFrom(seed Pair) {
	s.blank()
	s.mapPair(seed.U, seed.V, 0)
	for {
		bestGain, bestU, bestV := 0, -1, -1
		for u := 0; u < s.N1; u++ {
			// Without a mapped neighbour u gains nothing anywhere.
			if s.m1[u] >= 0 || s.near1[u] == 0 {
				continue
			}
			for _, v := range s.candidates(u) {
				if s.m2[v] >= 0 {
					continue
				}
				if gain := s.edgeGain(u, int(v)); gain > bestGain {
					bestGain, bestU, bestV = gain, u, int(v)
				}
			}
		}
		if bestU < 0 {
			break
		}
		s.mapPair(bestU, bestV, bestGain)
	}
	s.record()
}
