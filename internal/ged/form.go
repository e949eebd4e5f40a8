package ged

import "skygraph/internal/pairform"

// pairForm is the shared compact pair form (package pairform) plus what
// only edit costs need. Every engine in this package runs on it.
type pairForm struct {
	pairform.Form

	// Cost tables, filled from the CostModel by fillCosts: the model is
	// consulted once per label (pair) per search, never per node, and
	// custom models run the same kernel as Uniform. Substitution tables
	// are indexed [g1 id * stride + g2 id].
	vsub, vdel, vins []float64
	esub, edel, eins []float64

	inv []int32 // mappingCost scratch: g2 vertex -> g1 vertex
}

// fillCosts evaluates cm over the interned alphabets. Cost models must
// be pure functions of their labels.
func (f *pairForm) fillCosts(cm CostModel) {
	nv, ne := f.NV(), f.NE()
	f.vsub, f.vdel, f.vins = pairform.Resize(f.vsub, nv*nv), pairform.Resize(f.vdel, nv), pairform.Resize(f.vins, nv)
	f.esub, f.edel, f.eins = pairform.Resize(f.esub, ne*ne), pairform.Resize(f.edel, ne), pairform.Resize(f.eins, ne)
	for a, la := range f.VLabels {
		f.vdel[a+1], f.vins[a+1] = cm.VertexDel(la), cm.VertexIns(la)
		for b, lb := range f.VLabels {
			f.vsub[(a+1)*nv+b+1] = cm.VertexSubst(la, lb)
		}
	}
	for a, la := range f.ELabels {
		f.edel[a+1], f.eins[a+1] = cm.EdgeDel(la), cm.EdgeIns(la)
		for b, lb := range f.ELabels {
			f.esub[(a+1)*ne+b+1] = cm.EdgeSubst(la, lb)
		}
	}
}

// histBound is the label-histogram distance on a signed counter array:
// entries count a label's occurrences on the g1 side minus those on
// the g2 side, so positives are surplus and negatives deficit, and one
// substitution repairs one of each.
func histBound(c []int32) int32 { return histSums(c).bound() }

// histSums returns a signed counter array's surplus and deficit.
func histSums(c []int32) (h histSum) {
	for _, d := range c {
		if d > 0 {
			h.surplus += d
		} else {
			h.deficit -= d
		}
	}
	return h
}

// histSum is a counter array's surplus and deficit, kept up to date
// across single increments so the bound needs no recount.
type histSum struct{ surplus, deficit int32 }

// inc records the increment of a counter that held d.
func (h *histSum) inc(d int32) {
	if d >= 0 {
		h.surplus++
	} else {
		h.deficit--
	}
}

func (h histSum) bound() int32 { return max(h.surplus, h.deficit) }

// mappingCost is EditCostOfMapping on the form, summing in the same
// order.
func (f *pairForm) mappingCost(m []int) float64 {
	n1, n2, nv, ne := f.N1, f.N2, f.NV(), f.NE()
	cost := 0.0
	f.inv = pairform.Resize(f.inv, n2)
	inv := f.inv
	for v := range inv {
		inv[v] = -1
	}
	for u, v := range m {
		if v < 0 {
			cost += f.vdel[f.VL1[u]]
			continue
		}
		inv[v] = int32(u)
		cost += f.vsub[int(f.VL1[u])*nv+int(f.VL2[v])]
	}
	for v, u := range inv {
		if u < 0 {
			cost += f.vins[f.VL2[v]]
		}
	}
	for _, e := range f.Edges1 {
		v1, v2 := m[e.U], m[e.V]
		if v1 >= 0 && v2 >= 0 {
			if l2 := f.Adj2[v1*n2+v2]; l2 != 0 {
				cost += f.esub[int(e.L)*ne+int(l2)]
				continue
			}
		}
		cost += f.edel[e.L]
	}
	for _, e := range f.Edges2 {
		u1, u2 := inv[e.U], inv[e.V]
		if u1 >= 0 && u2 >= 0 && f.Adj1[int(u1)*n1+int(u2)] != 0 {
			continue // already charged as substitution
		}
		cost += f.eins[e.L]
	}
	return cost
}
