package measure

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"skygraph/internal/assign"
	"skygraph/internal/graph"
)

// The branch lower bound on uniform-cost GED (Zheng et al., "Efficient
// Graph Similarity Search Over Large Graph Databases", TKDE 2015). A
// vertex's branch is its label plus the multiset of its incident edges'
// labels. Two branches are compared by
//
//	[labels differ] + (edge-label multiset distance)/2
//
// where the multiset distance max(|A|,|B|) − |A∩B| is the fewest
// element insertions, deletions and substitutions turning A into B, and
// a vertex with no partner meets the empty branch: 1 + degree/2. The
// bound is the cheapest assignment of one graph's branches to the
// other's, padded with empty branches, rounded up.
//
// It is admissible: the vertex mapping of any edit path is one such
// assignment, and under it a vertex edit changes one branch by 1 while
// an edge edit changes the branches of its two endpoints by at most ½
// each, so the assignment costs at most the path. GED is integral, hence
// the ceiling. Capped engines report a GED at or above the true one (the
// bipartite fallback), so the bound floors what measure.Compute reports
// too. It is never below HistLB: summed over the assignment, the label
// mismatches are at least the vertex-histogram distance and the halved
// multiset distances at least the edge-histogram distance.
//
// The branch distance is a metric (the empty branch being a branch with
// a label of its own), so some cheapest assignment pairs every branch
// with an identical twin wherever one exists: exchanging partners never
// costs more, by the triangle inequality. BranchLB therefore cancels
// twins first and solves the assignment only over the branches left.
//
// A signature stores its branches as small integers, not strings: a
// label is named by its rank in the signature's own VHist or EHist
// (label-sorted). Per vertex the flat list holds the label's rank, the
// degree, then the incident edge labels' ranks ascending; vertices are
// sorted by that sequence. Ranks follow label order, so the order is
// canonical — the signature stays an isomorphism invariant — and a
// pair's two rank spaces merge into one, order-preserving, by walking
// the two histograms once: after that no string is compared.

// rankOf returns l's index in the label-sorted histogram h.
func rankOf(h Histogram, l string) uint32 {
	i, _ := slices.BinarySearchFunc(h, l, func(e labelCount, l string) int { return strings.Compare(e.label, l) })
	return uint32(i)
}

// encodeBranches returns the branches of g — whose edges are edges and
// whose vertex- and edge-label histograms are vh and eh — in canonical
// order as one flat list of ranks.
func encodeBranches(g *graph.Graph, edges []graph.Edge, vh, eh Histogram) []uint32 {
	n := g.Order()
	// inc[start[v]:start[v+1]] holds the ranks of v's edge labels.
	start := make([]int, n+1)
	for _, e := range edges {
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	inc := make([]uint32, start[n])
	fill := slices.Clone(start[:n])
	for _, e := range edges {
		r := rankOf(eh, e.Label)
		inc[fill[e.U]] = r
		fill[e.U]++
		inc[fill[e.V]] = r
		fill[e.V]++
	}
	label := make([]uint32, n)
	perm := make([]int, n)
	for v := range perm {
		perm[v] = v
		label[v] = rankOf(vh, g.VertexLabel(v))
		slices.Sort(inc[start[v]:start[v+1]])
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := cmp.Compare(label[a], label[b]); c != 0 {
			return c
		}
		ea, eb := inc[start[a]:start[a+1]], inc[start[b]:start[b+1]]
		if c := cmp.Compare(len(ea), len(eb)); c != 0 {
			return c
		}
		return slices.Compare(ea, eb)
	})
	out := make([]uint32, 0, 2*n+len(inc))
	for _, v := range perm {
		out = append(out, label[v], uint32(start[v+1]-start[v]))
		out = append(out, inc[start[v]:start[v+1]]...)
	}
	return out
}

// mergeRanks maps both histograms' ranks into one shared rank space over
// the union of their labels, order-preserving: m1[i] and m2[j] are the
// shared ranks of h1[i] and h2[j].
func mergeRanks(m1, m2 []uint32, h1, h2 Histogram) ([]uint32, []uint32) {
	m1, m2 = m1[:0], m2[:0]
	next := uint32(0)
	i, j := 0, 0
	for i < len(h1) || j < len(h2) {
		c := -1
		switch {
		case i == len(h1):
			c = 1
		case j < len(h2):
			c = strings.Compare(h1[i].label, h2[j].label)
		}
		if c <= 0 {
			m1 = append(m1, next)
			i++
		}
		if c >= 0 {
			m2 = append(m2, next)
			j++
		}
		next++
	}
	return m1, m2
}

// branch is one decoded branch in a pair's shared rank space: the
// vertex label and the edge labels, ascending.
type branch struct {
	label uint32
	edges []uint32
}

// compareBranches orders decoded branches as encodeBranches does.
func compareBranches(a, b branch) int {
	if c := cmp.Compare(a.label, b.label); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.edges), len(b.edges)); c != 0 {
		return c
	}
	return slices.Compare(a.edges, b.edges)
}

// decodeBranches appends the branches of enc, ranks mapped through vm
// and em, to bs and their edge labels to ids.
func decodeBranches(bs []branch, ids []uint32, enc, vm, em []uint32) ([]branch, []uint32) {
	for len(enc) > 0 {
		label, deg := vm[enc[0]], int(enc[1])
		from := len(ids)
		for _, e := range enc[2 : 2+deg] {
			ids = append(ids, em[e])
		}
		bs = append(bs, branch{label: label, edges: ids[from:len(ids):len(ids)]})
		enc = enc[2+deg:]
	}
	return bs, ids
}

// cancelTwins drops every identical pair from two ascending branch
// lists, in place, and returns what is left of each.
func cancelTwins(a, b []branch) (ra, rb []branch) {
	ra, rb = a[:0], b[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := compareBranches(a[i], b[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			ra = append(ra, a[i])
			i++
		default:
			rb = append(rb, b[j])
			j++
		}
	}
	return append(ra, a[i:]...), append(rb, b[j:]...)
}

// cost2 is twice the branch distance between a and b, an integer.
func (a branch) cost2(b branch) int {
	c := 0
	if a.label != b.label {
		c = 2
	}
	common, i, j := 0, 0, 0
	for i < len(a.edges) && j < len(b.edges) {
		switch x, y := a.edges[i], b.edges[j]; {
		case x == y:
			common++
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return c + max(len(a.edges), len(b.edges)) - common
}

// branchBuf is one BranchLB call's working memory: the shared-rank maps,
// both graphs' decoded branches, the cost matrix and the assignment
// solver's scratch, pooled so a warm call allocates nothing.
type branchBuf struct {
	vm1, vm2, em1, em2 []uint32
	b1, b2             []branch
	ids                []uint32
	flat               []float64
	matrix             [][]float64
	solver             assign.Scratch
}

var branchPool = sync.Pool{New: func() any { return new(branchBuf) }}

// costs fills the buffer with the doubled branch-distance matrix of the
// branches of s and o that have no identical twin on the other side:
// rows are those of the graph with more vertices, columns the other
// graph's, padded with empty branches to a square. Empty when every
// branch has a twin.
func (b *branchBuf) costs(s, o *Signature) [][]float64 {
	b.vm1, b.vm2 = mergeRanks(b.vm1, b.vm2, s.VHist, o.VHist)
	b.em1, b.em2 = mergeRanks(b.em1, b.em2, s.EHist, o.EHist)
	b.ids = b.ids[:0]
	b.b1, b.ids = decodeBranches(b.b1[:0], b.ids, s.branches, b.vm1, b.em1)
	b.b2, b.ids = decodeBranches(b.b2[:0], b.ids, o.branches, b.vm2, b.em2)
	rows, cols := cancelTwins(b.b1, b.b2)
	if len(rows) < len(cols) {
		rows, cols = cols, rows
	}
	n := len(rows)
	if cap(b.flat) < n*n {
		b.flat = make([]float64, n*n)
	}
	b.matrix = b.matrix[:0]
	for i, a := range rows {
		row := b.flat[i*n : (i+1)*n]
		for j, c := range cols {
			row[j] = float64(a.cost2(c))
		}
		for j := len(cols); j < n; j++ {
			row[j] = float64(2 + len(a.edges))
		}
		b.matrix = append(b.matrix, row)
	}
	return b.matrix
}

// BranchLB returns the branch lower bound on the uniform-cost edit
// distance between the signatures' graphs (see the top of this file).
// It is symmetric, at least HistLB, and never above the GED
// measure.Compute reports, capped or not.
func (s *Signature) BranchLB(o *Signature) float64 {
	buf := branchPool.Get().(*branchBuf)
	defer branchPool.Put(buf)
	// The costs are small integers, so the solver's sums are exact and
	// the total is the same whichever graph supplies the rows.
	_, total, _ := buf.solver.Solve(buf.costs(s, o))
	return math.Ceil(total / 2)
}
