package ged

import "skygraph/internal/pairform"

// mismatch is the uniform cost of matching label id a with b: 0 when
// they are equal, 1 otherwise. Edge-label id 0 stands for "no edge", so
// on adjacency cells it also charges an edge present on one side only
// (an insertion or deletion).
func mismatch(a, b int32) int32 {
	if a == b {
		return 0
	}
	return 1
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
// across unit moves so the bound needs no recount.
type histSum struct{ surplus, deficit int32 }

// add moves counter l of c by d (+1 or -1), keeping the sums current:
// the move changes the surplus when the counter is positive before or
// after it, and the deficit otherwise.
func (h *histSum) add(c []int32, l, d int32) {
	x := c[l]
	c[l] = x + d
	h.move(x, d)
}

// move is add's change to the sums for a counter at x moving by d,
// with the counter itself left as it is.
func (h *histSum) move(x, d int32) {
	if x+x+d > 0 {
		h.surplus += d
	} else {
		h.deficit -= d
	}
}

func (h histSum) bound() int32 { return max(h.surplus, h.deficit) }

// mappingCost is EditCostOfMapping on the pair form.
func (s *search) mappingCost(m []int) int32 {
	n1, n2 := s.N1, s.N2
	var cost int32
	s.inv = pairform.Resize(s.inv, n2)
	inv := s.inv
	for v := range inv {
		inv[v] = -1
	}
	for u, v := range m {
		if v < 0 {
			cost++ // deletion
			continue
		}
		inv[v] = int32(u)
		cost += mismatch(s.VL1[u], s.VL2[v])
	}
	for _, u := range inv {
		if u < 0 {
			cost++ // insertion
		}
	}
	for _, e := range s.Edges1 {
		v1, v2 := m[e.U], m[e.V]
		if v1 >= 0 && v2 >= 0 {
			cost += mismatch(e.L, s.Adj2[v1*n2+v2])
		} else {
			cost++ // deletion
		}
	}
	for _, e := range s.Edges2 {
		u1, u2 := inv[e.U], inv[e.V]
		if u1 < 0 || u2 < 0 || s.Adj1[int(u1)*n1+int(u2)] == 0 {
			cost++ // insertion; a substitution was charged above
		}
	}
	return cost
}
