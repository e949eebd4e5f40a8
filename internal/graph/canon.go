package graph

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements a canonical form for small labeled graphs: a
// vertex ordering whose induced encoding is lexicographically minimal.
// Two graphs are isomorphic iff their canonical strings are equal, which
// makes the canonical form usable for exact deduplication and hashing.
//
// The encoding is block-decomposable — block i holds vertex i's label and
// its back-edges into vertices 0..i-1 — so a partial vertex ordering fixes
// a string prefix and the branch-and-bound can prune any prefix already
// lexicographically above the best complete encoding. Worst case
// exponential; intended for graphs up to ~10 vertices.

// CanonicalString returns a complete isomorphism-invariant encoding of g.
// Isomorphic graphs produce identical strings; non-isomorphic graphs
// produce different ones.
func CanonicalString(g *Graph) string {
	s, _ := CanonicalStringBudget(g, 0)
	return s
}

// CanonicalStringBudget is CanonicalString with a cap on search-tree
// nodes (0 = unlimited). ok is false when the budget was exhausted; the
// returned string is then a best-effort encoding that is deterministic
// for this exact graph but NOT isomorphism-invariant, so callers needing
// the invariant must discard it. Highly symmetric graphs (many tied
// labels) are where the branch and bound degenerates; the budget turns
// a potentially exponential stall into a clean refusal.
func CanonicalStringBudget(g *Graph, maxNodes int) (s string, ok bool) {
	n := g.Order()
	if n == 0 {
		return "canon:0:", true
	}
	cs := &canonSearch{g: g, budget: maxNodes}
	cs.search(make([]int, 0, n), make([]bool, n), "")
	return fmt.Sprintf("canon:%d:%s", n, cs.best), !cs.exhausted
}

type canonSearch struct {
	g         *Graph
	best      string
	done      bool
	budget    int // max search nodes; 0 = unlimited
	nodes     int
	exhausted bool
}

// block renders vertex v's contribution given the already-placed prefix:
// its label plus its sorted back-edges into the prefix.
func (cs *canonSearch) block(v int, order []int) string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(cs.g.VertexLabel(v))
	for i, u := range order {
		if l, ok := cs.g.EdgeLabel(v, u); ok {
			fmt.Fprintf(&b, ";%d:%s", i, l)
		}
	}
	b.WriteByte(']')
	return b.String()
}

func (cs *canonSearch) search(order []int, used []bool, partial string) {
	if cs.exhausted {
		return
	}
	cs.nodes++
	if cs.budget > 0 && cs.nodes > cs.budget {
		cs.exhausted = true
		return
	}
	n := cs.g.Order()
	if len(order) == n {
		if !cs.done || partial < cs.best {
			cs.best = partial
			cs.done = true
		}
		return
	}
	// Expand candidates in block order so better prefixes are tried first
	// (finds a good bound early, then prunes hard).
	type cand struct {
		v     int
		block string
	}
	var cands []cand
	for v := 0; v < n; v++ {
		if !used[v] {
			cands = append(cands, cand{v, cs.block(v, order)})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].block < cands[b].block })
	for i, c := range cands {
		// Identical blocks lead to identical subtrees only if the vertices
		// are interchangeable, which we cannot assume — but trying the
		// second of two equal blocks cannot yield a *strictly smaller*
		// prefix than the first at this position, so we still must explore
		// both. Prune only on the bound below.
		_ = i
		next := partial + c.block
		if cs.done {
			limit := len(next)
			if limit > len(cs.best) {
				limit = len(cs.best)
			}
			if next[:limit] > cs.best[:limit] {
				// Every completion extends next, so it exceeds best.
				continue
			}
		}
		used[c.v] = true
		cs.search(append(order, c.v), used, next)
		used[c.v] = false
	}
}
