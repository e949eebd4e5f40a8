package measure

import (
	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
)

// This file implements the bound side of the filter-and-refine
// pipeline: interval versions of the pair statistics, derived from
// stored signatures alone (BoundPair, no graph access). The intervals are
// admissible with respect to Compute — the value Compute reports lies
// inside them:
//
//   - GED low:  the label-histogram lower bound (== ged.LowerBound),
//     which no edit path costs less than.
//   - GED high: delete-all/insert-all (|V1|+|V2|+|E1|+|E2|), which the
//     cheapest edit path never exceeds.
//   - MCS high: the edge-type multiset intersection, at most the edge
//     count of the densest simple graph on the common vertex labels.
//     Every common subgraph's edges match labels on both sides, so no
//     witness can exceed it.
//   - MCS low:  0.
//
// Edit costs are uniform throughout: package ged implements only the
// paper's uniform model, so every edit distance is an integer.

// BoundStats is the interval analogue of PairStats: the expensive
// quantities are known only as ranges, the cheap ones exactly.
type BoundStats struct {
	// GEDLo and GEDHi bracket the edit distance Compute would report.
	GEDLo, GEDHi float64
	// MCSLo and MCSHi bracket the common-edge count Compute would report.
	MCSLo, MCSHi int
	// The remaining fields are exact, straight from the signatures
	// (same meaning as in PairStats).
	Size1, Size2   int
	Order1, Order2 int
	VHistDist      int
	EHistDist      int
	DegL1          int
}

// BoundPair derives tier-0 interval statistics for the pair (s1, s2)
// from signatures alone — O(labels + degrees), no graph access.
func BoundPair(s1, s2 *Signature) BoundStats {
	vSurplus, vDeficit := s1.VHist.merge(s2.VHist)
	vd := max(vSurplus, vDeficit)
	ed := s1.EHist.distance(s2.EHist)
	return BoundStats{
		GEDLo:     float64(vd + ed),
		GEDHi:     float64(s1.Order + s2.Order + s1.Size + s2.Size),
		MCSLo:     0,
		MCSHi:     mcsUpper(s1, s2, s1.Order-vSurplus),
		Size1:     s1.Size,
		Size2:     s2.Size,
		Order1:    s1.Order,
		Order2:    s2.Order,
		VHistDist: vd,
		EHistDist: ed,
		DegL1:     degreeL1(s1.Degrees, s2.Degrees),
	}
}

// mcsUpper bounds |mcs| from signatures: common edges must agree on the
// full edge type — edge label plus both endpoint labels (multiset
// intersection over THist) — and a common subgraph has at most
// min(common vertex labels) vertices, hence at most C(v,2) edges. vi
// is that vertex-label intersection, which the caller takes from the
// surplus of its vertex-histogram merge.
func mcsUpper(s1, s2 *Signature, vi int) int {
	ub := s1.Size
	if s2.Size < ub {
		ub = s2.Size
	}
	if ti := s1.THist.intersection(s2.THist); ti < ub {
		ub = ti
	}
	if dense := vi * (vi - 1) / 2; dense < ub {
		ub = dense
	}
	return ub
}

// Refine tightens tier-0 bounds with the cheap polynomial engines: the
// bipartite assignment upper bound on GED (the cost of a real mapping,
// so never below the distance Compute reports) and the deterministic
// greedy lower bound on MCS (the edge count of a real common subgraph,
// so never above the maximum Compute reports). No query path calls it any
// more — the ranked scan decides candidates on their tier-0 and branch
// bounds, which cost less than refining them did. It is kept only for
// the benchmark harness's measure.refine_us probe.
func Refine(g1, g2 *graph.Graph, bs BoundStats) BoundStats {
	if d := ged.Bipartite(g1, g2).Distance; d < bs.GEDHi {
		bs.GEDHi = d
	}
	if e := mcs.GreedyLB(g1, g2).Edges; e > bs.MCSLo {
		bs.MCSLo = e
	}
	return bs
}

// corners returns the optimistic and pessimistic PairStats corners of
// the interval: every measure is non-decreasing in GED and
// non-increasing in MCS (distances shrink as similarity grows), so the
// (GEDLo, MCSHi) corner minimizes and the (GEDHi, MCSLo) corner
// maximizes each measure simultaneously.
func (bs BoundStats) corners() (opt, pes PairStats) {
	shared := PairStats{
		Size1: bs.Size1, Size2: bs.Size2,
		Order1: bs.Order1, Order2: bs.Order2,
		VHistDist: bs.VHistDist, EHistDist: bs.EHistDist, DegL1: bs.DegL1,
	}
	opt, pes = shared, shared
	opt.GED, opt.MCS = bs.GEDLo, bs.MCSHi
	pes.GED, pes.MCS = bs.GEDHi, bs.MCSLo
	return opt, pes
}

// IntervalGCS evaluates the GCS interval vector of the bounds under
// basis: lo[i] <= exact GCS[i] <= hi[i] for every basis measure.
func (bs BoundStats) IntervalGCS(basis []Measure) (lo, hi []float64) {
	opt, pes := bs.corners()
	return GCS(&opt, basis), GCS(&pes, basis)
}

// OptimisticGCS is IntervalGCS's lo alone: the corner the skyline
// scan's front tests once the branch bound has raised GEDLo.
func (bs BoundStats) OptimisticGCS(basis []Measure) []float64 {
	opt, _ := bs.corners()
	return GCS(&opt, basis)
}
