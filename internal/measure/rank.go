package measure

import (
	"math"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
)

// This file is the ranked-query side of the bound machinery: where the
// skyline filter consumes whole interval vectors, top-k and range
// queries rank by ONE measure and carry a live scalar threshold (the
// current k-th best distance, or the radius). Both scans take their
// tier-0 corners from one function, RankInterval, which computes only
// what the basis reads, and the ranked scan orders its candidates by
// the optimistic end of that interval. Three more pieces serve the
// ranked side:
//
//   - Interval: the scalar [lo, hi] bracket of a single measure under
//     full interval statistics, which a threshold-fed evaluation
//     checks first;
//   - PlanRank: translating "distance > t" into decision thresholds the
//     exact engines understand (a GED limit, an |mcs| floor);
//   - ComputeRankResults: the threshold-fed pair evaluation — decision
//     runs first, full exactness only for candidates the engines cannot
//     discard. Scores of surviving candidates are byte-identical to
//     m.FromStats on ComputeHinted(...) of the same pair.

// EngineNeeds reports which exact engines m consumes: the feature
// measures (DistVLabel, DistELabel, DistDegree) derive entirely from
// signatures and need neither.
func EngineNeeds(m Measure) (needGED, needMCS bool) {
	switch m {
	case DistEd, DistNEd:
		return true, false
	case DistMcs, DistGu:
		return false, true
	}
	return false, false
}

// statsAt renders the PairStats the measure functions see for a
// hypothetical (GED, MCS) point inside the interval; the cheap fields
// are exact and shared.
func (bs BoundStats) statsAt(gedv float64, mcsv int) PairStats {
	return PairStats{
		GED: gedv, MCS: mcsv,
		Size1: bs.Size1, Size2: bs.Size2,
		Order1: bs.Order1, Order2: bs.Order2,
		VHistDist: bs.VHistDist, EHistDist: bs.EHistDist, DegL1: bs.DegL1,
	}
}

// Interval returns the scalar [lo, hi] bracket of a single measure
// under bs: lo <= m.FromStats on Compute(...) <= hi, by the same corner
// monotonicity IntervalGCS relies on.
func (bs BoundStats) Interval(m Measure) (lo, hi float64) {
	opt, pes := bs.corners()
	return m.FromStats(&opt), m.FromStats(&pes)
}

// RankInterval writes the optimistic corner of the pair's tier-0 GCS
// interval under basis into lo and, when hi is non-nil, the
// pessimistic corner into hi (both len(basis)), and returns the tier-0
// GED lower bound: lo, hi and gedLo equal BoundPair(s1,
// s2).IntervalGCS(basis) and BoundPair(s1, s2).GEDLo bit for bit. It
// reads only the signature fields the basis needs: no MCS bound unless
// DistMcs or DistGu is in it and no degree distance unless DistDegree
// is. The vertex-label intersection the MCS bound needs comes out of
// the vertex-histogram merge that the GED bound walks anyway. The
// skyline scan calls it with the query basis, the ranked scan with its
// one measure.
func RankInterval(s1, s2 *Signature, basis []Measure, lo, hi []float64) (gedLo float64) {
	needMCS, needDeg := false, false
	for _, m := range basis {
		switch m {
		case DistMcs, DistGu:
			needMCS = true
		case DistDegree:
			needDeg = true
		}
	}
	vSurplus, vDeficit := s1.VHist.merge(s2.VHist)
	vd, ed := max(vSurplus, vDeficit), s1.EHist.distance(s2.EHist)
	// Fields are set in place: opt's address is taken, so a composite
	// literal would be built in a temporary and copied over on every
	// call. PairStats is 72 bytes, too small for the amd64 compiler to
	// zero or copy it through runtime.duffzero or runtime.duffcopy
	// (from 80 bytes on), so declaring opt zeroes it inline.
	var opt PairStats
	opt.GED = float64(vd + ed)
	opt.Size1, opt.Size2 = s1.Size, s2.Size
	opt.Order1, opt.Order2 = s1.Order, s2.Order
	opt.VHistDist, opt.EHistDist = vd, ed
	if needMCS {
		opt.MCS = mcsUpper(s1, s2, s1.Order-vSurplus)
	}
	if needDeg {
		opt.DegL1 = degreeL1(s1.Degrees, s2.Degrees)
	}
	for k, m := range basis {
		lo[k] = m.FromStats(&opt)
	}
	if hi != nil {
		opt.GED, opt.MCS = float64(s1.Order+s2.Order+s1.Size+s2.Size), 0
		for k, m := range basis {
			hi[k] = m.FromStats(&opt)
		}
	}
	return float64(vd + ed)
}

// HistogramRanked reports whether m's tier-0 interval (RankInterval
// with basis {m}) reads only the pair's vertex- and edge-label
// histograms, orders and sizes included, which the histograms fix: then
// every signature of one histogram class (HistogramClass) has the same
// interval against a given query, bit for bit, and the ranked scan
// bounds each class once.
func HistogramRanked(m Measure) bool {
	switch m {
	case DistEd, DistNEd, DistVLabel, DistELabel:
		return true
	}
	return false
}

// AtGED is the distance of a measure that reads GED alone (one for
// which EngineNeeds reports needGED) at GED value v: the end of its
// interval at a GED bound.
func AtGED(m Measure, v float64) float64 { return m.FromStats(&PairStats{GED: v}) }

// GEDFit returns, for a measure that reads GED alone, the largest
// integer GED v >= 0 whose distance AtGED(m, v) fits under t: −1 when
// not even 0 fits, +Inf when every v up to math.MaxInt32 does. Such a
// measure is non-decreasing in GED, so the answer depends on (m, t)
// alone: a scan computes it once per threshold value and clamps it to
// each candidate's GED interval with GEDLimitAt.
func GEDFit(m Measure, t float64) float64 {
	return lastFit(0, math.MaxInt32, func(v int) bool { return AtGED(m, float64(v)) <= t })
}

// GEDLimitAt is GEDLimit for a measure that reads GED alone, from its
// GEDFit at the threshold: the largest integer GED v in [lo, hi]
// (0 <= lo <= hi <= math.MaxInt32) whose distance fits under the
// threshold, +Inf when even hi fits, lo−1 when not even lo does. The
// ranked scan hands it to tier 1 (BranchTable.Exceeds): a branch bound
// above it proves the candidate out.
func GEDLimitAt(fit float64, lo, hi int) float64 {
	switch {
	case fit >= float64(hi):
		return math.Inf(1)
	case fit < float64(lo):
		return float64(lo) - 1
	}
	return fit
}

// RankPlan tells the exact engines how to decide "distance under m
// exceeds t" for one candidate pair. Either proof suffices:
//
//   - GED side: the reported edit distance provably exceeds GEDLimit
//     (ged.Options.Limit);
//   - MCS side: the reported |mcs| is provably below MCSNeed
//     (mcs.Options.Need).
//
// The cutoffs are derived by evaluating m.FromStats over integer grid
// points of the interval — the same float operations the scoring path
// uses — so no analytic inversion can disagree with the scores by a
// rounding error.
type RankPlan struct {
	// NeedGED and NeedMCS report which engines m consumes (EngineNeeds).
	NeedGED, NeedMCS bool
	// GEDLimit is the largest GED value whose m-distance still fits
	// under the threshold: a proof of GED > GEDLimit excludes the
	// candidate. +Inf when no reportable GED can push the distance past
	// the threshold (exclusion via GED impossible). Valid when NeedGED.
	GEDLimit float64
	// MCSNeed is the smallest |mcs| whose m-distance fits under the
	// threshold: a proof of |mcs| < MCSNeed excludes the candidate.
	// 0 when every reportable |mcs| fits (exclusion via MCS
	// impossible). Valid when NeedMCS.
	MCSNeed int
}

// PlanRank derives the engine cutoffs for deciding "m-distance > t" on
// a candidate bounded by bs. The uniform cost model (integral GED) is
// assumed, as everywhere in the Compute pipeline.
func PlanRank(m Measure, bs BoundStats, t float64) RankPlan {
	p := RankPlan{}
	p.NeedGED, p.NeedMCS = EngineNeeds(m)
	if p.NeedGED {
		// m-distance is non-decreasing in GED and the reported GED lies
		// in [GEDLo, GEDHi]: +Inf means even the pessimistic end fits (no
		// reportable GED exceeds the threshold), GEDLo−1 that even the
		// optimistic end exceeds it (any proof of GED > GEDLo−1 excludes,
		// and that one is immediate: the histogram bound is the root
		// f-value).
		ps := bs.statsAt(0, bs.MCSHi)
		p.GEDLimit = lastFit(int(bs.GEDLo), int(bs.GEDHi), func(v int) bool {
			ps.GED = float64(v)
			return m.FromStats(&ps) <= t
		})
	}
	if p.NeedMCS {
		// m-distance is non-increasing in |mcs| and the reported |mcs|
		// lies in [MCSLo, MCSHi]; find the smallest integer in that
		// range whose distance fits.
		lo, hi := bs.MCSLo, bs.MCSHi
		fits := func(mcsv int) bool {
			ps := bs.statsAt(bs.GEDLo, mcsv)
			return m.FromStats(&ps) <= t
		}
		switch {
		case fits(lo):
			// Even the pessimistic end fits: exclusion impossible.
			p.MCSNeed = 0
		case !fits(hi):
			// Even the optimistic end exceeds: |mcs| <= MCSHi always
			// holds, so proving |mcs| < MCSHi + 1 excludes.
			p.MCSNeed = hi + 1
		default:
			for lo < hi {
				mid := (lo + hi) / 2
				if fits(mid) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			p.MCSNeed = lo
		}
	}
	return p
}

// GEDLimit returns the largest integer GED in [bs.GEDLo, bs.GEDHi] whose
// GCS vector under basis — that GED beside |mcs| = mcsv — still fits:
// +Inf when even GEDHi fits, GEDLo−1 when not even GEDLo does. fits must
// be monotone in GED (once it fails it fails for every larger value),
// which any test that only gets harder as the measures grow is; it sees
// the very vector the scoring path would, so the cutoff cannot disagree
// with a score by a rounding error. Binary search on monotonicity:
// O(log(GEDHi−GEDLo)) calls. The progressive skyline scan decides a
// candidate's vector against its running front with it; PlanRank runs
// the same search for one measure against a scalar threshold.
func (bs BoundStats) GEDLimit(mcsv int, basis []Measure, fits func(vec []float64) bool) float64 {
	ps := bs.statsAt(0, mcsv)
	return lastFit(int(bs.GEDLo), int(bs.GEDHi), func(v int) bool {
		ps.GED = float64(v)
		return fits(GCS(&ps, basis))
	})
}

// lastFit returns the largest integer v in [lo, hi] with fits(v): +Inf
// when fits(hi), lo−1 when not fits(lo). fits must be monotone (once it
// fails it fails for every larger value).
func lastFit(lo, hi int, fits func(int) bool) float64 {
	switch {
	case fits(hi):
		return math.Inf(1)
	case !fits(lo):
		return float64(lo) - 1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return float64(lo)
}

// ComputeRankResults is the threshold-fed pair evaluation: it either
// proves the pair's m-distance exceeds t (excluded=true, no score) or
// returns the exact score, byte-identical to m.FromStats on Compute(g1,
// g2, opts), with the plain engine results that back it — exactly the
// engines m consumes, from which the skyline scan assembles its vector
// (PairStatsFrom). bs must bound the
// pair (tier-0 BoundPair, optionally with GEDLo raised by the branch
// bound); its exact fields supply the cheap statistics. Decision-run
// outcomes are never returned: a search truncated at the decision
// threshold is not the plain engine's answer (except a GED goal within
// the limit, whose value is provably identical and is returned).
// Excluded candidates return empty results. Once opts.Stop is closed
// the results mean nothing, and the caller must discard them.
func ComputeRankResults(g1, g2 *graph.Graph, m Measure, t float64, bs BoundStats, opts Options) (score float64, got EngineResults, excluded bool) {
	lo, hi := bs.Interval(m)
	if lo > t {
		// The whole interval sits above the threshold: the reported
		// distance cannot fit. (The best-first scan normally stops
		// before such candidates; this catches a threshold that
		// tightened after the candidate was claimed.)
		return 0, EngineResults{}, true
	}
	plan := PlanRank(m, bs, t)
	ps := bs.statsAt(0, 0)
	certain := hi <= t // interval proves inclusion: skip decision runs
	if plan.NeedGED {
		var res ged.Result
		if !certain && !math.IsInf(plan.GEDLimit, 1) {
			res = ged.Exact(g1, g2, ged.Options{Limit: &plan.GEDLimit, Stop: opts.Stop})
			if res.AboveLimit {
				return 0, EngineResults{}, true
			}
			// A decision search that reaches a goal is the plain search
			// truncated at nothing: the goal is the true minimum, exactly
			// what the full run would report.
		}
		if !res.Exact {
			res = ged.Exact(g1, g2, ged.Options{Stop: opts.Stop})
		}
		ps.GED, got.GED = res.Distance, res.Distance
	}
	if plan.NeedMCS {
		if !certain && plan.MCSNeed > 0 {
			if dres := mcs.Exact(g1, g2, mcs.Options{Need: plan.MCSNeed, Stop: opts.Stop}); dres.ProvedBelowNeed {
				return 0, EngineResults{}, true
			}
			// A decision run that reached Need stopped early; its
			// mapping is decision-grade only, so the survivor pays the
			// plain search below for the byte-identical score.
		}
		ps.MCS = mcs.Exact(g1, g2, mcs.Options{Stop: opts.Stop}).Mapping.Edges
		got.MCS = ps.MCS
	}
	return m.FromStats(&ps), got, false
}
