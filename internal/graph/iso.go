package graph

// This file implements label-preserving (sub)graph isomorphism testing in
// the sense of Definitions 4 and 5 of the paper, using a VF2-style
// backtracking search. Subgraph isomorphism here is a *monomorphism*: every
// edge of the pattern must map to an edge of the host with the same label,
// but the host may have extra edges between mapped vertices (Definition 5
// requires only an injection preserving edges, not an induced embedding).

// Isomorphic reports whether g and h are isomorphic (Definition 4): there is
// a label-preserving bijection between their vertex sets preserving labeled
// edges in both directions.
func Isomorphic(g, h *Graph) bool {
	if g.Order() != h.Order() || g.Size() != h.Size() {
		return false
	}
	if !sameLabelHistogram(g, h) {
		return false
	}
	st := newIsoState(g, h, true)
	return st.match(0)
}

// SubgraphIsomorphic reports whether pattern is subgraph-isomorphic to host
// (Definition 5): an injection from pattern vertices to host vertices that
// preserves vertex labels and maps every pattern edge to a host edge with
// the same label.
func SubgraphIsomorphic(pattern, host *Graph) bool {
	if pattern.Order() > host.Order() || pattern.Size() > host.Size() {
		return false
	}
	return newIsoState(pattern, host, false).match(0)
}

// IsSupergraphOf reports whether g ⊇ h (Definition 6).
func IsSupergraphOf(g, h *Graph) bool { return SubgraphIsomorphic(h, g) }

type isoState struct {
	p, h    *Graph
	induced bool  // true for full isomorphism (degree must match exactly)
	core    []int // pattern vertex -> host vertex or -1
	used    []bool
	order   []int // pattern vertices in matching order (connectivity-first)
}

func newIsoState(p, h *Graph, induced bool) *isoState {
	st := &isoState{
		p:       p,
		h:       h,
		induced: induced,
		core:    make([]int, p.Order()),
		used:    make([]bool, h.Order()),
		order:   matchingOrder(p),
	}
	for i := range st.core {
		st.core[i] = -1
	}
	return st
}

// matchingOrder returns the pattern vertices ordered so that, within each
// connected component, every vertex after the first is adjacent to an
// earlier one (BFS order), with higher-degree roots first. This keeps the
// partial mapping connected and prunes aggressively.
func matchingOrder(p *Graph) []int {
	n := p.Order()
	seen := make([]bool, n)
	order := make([]int, 0, n)
	for {
		root, best := -1, -1
		for v := 0; v < n; v++ {
			if !seen[v] && p.Degree(v) > best {
				root, best = v, p.Degree(v)
			}
		}
		if root < 0 {
			break
		}
		for _, v := range p.BFS(root) {
			seen[v] = true
			order = append(order, v)
		}
	}
	return order
}

func (st *isoState) match(depth int) bool {
	if depth == len(st.order) {
		return true
	}
	pv := st.order[depth]
	for hv := 0; hv < st.h.Order(); hv++ {
		if st.used[hv] || !st.feasible(pv, hv) {
			continue
		}
		st.core[pv] = hv
		st.used[hv] = true
		if st.match(depth + 1) {
			return true
		}
		st.core[pv] = -1
		st.used[hv] = false
	}
	return false
}

func (st *isoState) feasible(pv, hv int) bool {
	if st.p.VertexLabel(pv) != st.h.VertexLabel(hv) {
		return false
	}
	pd, hd := st.p.Degree(pv), st.h.Degree(hv)
	if st.induced {
		if pd != hd {
			return false
		}
	} else if pd > hd {
		return false
	}
	// Every already-mapped neighbor of pv must connect to hv with a matching
	// labeled edge; for induced matching, non-adjacency must be mirrored.
	for w, lbl := range st.p.NeighborSet(pv) {
		hw := st.core[w]
		if hw < 0 {
			continue
		}
		hl, ok := st.h.EdgeLabel(hv, hw)
		if !ok || hl != lbl {
			return false
		}
	}
	if st.induced {
		for hw, hl := range st.h.NeighborSet(hv) {
			pw := st.hostToPattern(hw)
			if pw < 0 {
				continue
			}
			pl, ok := st.p.EdgeLabel(pv, pw)
			if !ok || pl != hl {
				return false
			}
		}
	}
	return true
}

func (st *isoState) hostToPattern(hv int) int {
	for pv, m := range st.core {
		if m == hv {
			return pv
		}
	}
	return -1
}

func sameLabelHistogram(g, h *Graph) bool {
	gv, ge := g.LabelHistogram()
	hv, he := h.LabelHistogram()
	if len(gv) != len(hv) || len(ge) != len(he) {
		return false
	}
	for l, c := range gv {
		if hv[l] != c {
			return false
		}
	}
	for l, c := range ge {
		if he[l] != c {
			return false
		}
	}
	return true
}
