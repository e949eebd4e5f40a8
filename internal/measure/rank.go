package measure

import (
	"math"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
)

// This file is the ranked-query side of the bound machinery: where the
// skyline filter consumes whole interval vectors (IntervalGCS), top-k
// and range queries rank by ONE measure and carry a live scalar
// threshold (the current k-th best distance, or the radius). Three
// pieces serve that:
//
//   - Interval: the scalar [lo, hi] bracket of a single measure, the
//     optimistic bound a best-first scan orders candidates by;
//   - PlanRank: translating "distance > t" into decision thresholds the
//     exact engines understand (a GED limit, an |mcs| floor);
//   - ComputeRank: the threshold-fed pair evaluation — decision runs
//     first, full exactness only for candidates the engines cannot
//     discard. Scores of surviving candidates are byte-identical to
//     m.FromStats(ComputeHinted(...)) on the same pair.

// Rankable reports whether m is a built-in measure the ranked
// filter-and-refine path can bound and decide. Foreign measures must
// fall back to full evaluation.
func Rankable(m Measure) bool { return Boundable([]Measure{m}) }

// EngineNeeds reports which exact engines m consumes: the feature
// measures (DistVLabel, DistELabel, DistDegree) derive entirely from
// signatures and need neither. Only meaningful for Rankable measures.
func EngineNeeds(m Measure) (needGED, needMCS bool) {
	switch m.(type) {
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
// under bs: lo <= m.FromStats(Compute(...)) <= hi, by the same corner
// monotonicity IntervalGCS relies on. Only valid for Rankable measures.
func (bs BoundStats) Interval(m Measure) (lo, hi float64) {
	opt, pes := bs.corners()
	return m.FromStats(opt), m.FromStats(pes)
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
		p.GEDLimit = bs.GEDLimit(bs.MCSHi, func(ps PairStats) bool { return m.FromStats(ps) <= t })
	}
	if p.NeedMCS {
		// m-distance is non-increasing in |mcs| and the reported |mcs|
		// lies in [MCSLo, MCSHi]; find the smallest integer in that
		// range whose distance fits.
		lo, hi := bs.MCSLo, bs.MCSHi
		switch {
		case m.FromStats(bs.statsAt(bs.GEDLo, lo)) <= t:
			// Even the pessimistic end fits: exclusion impossible.
			p.MCSNeed = 0
		case m.FromStats(bs.statsAt(bs.GEDLo, hi)) > t:
			// Even the optimistic end exceeds: |mcs| <= MCSHi always
			// holds, so proving |mcs| < MCSHi + 1 excludes.
			p.MCSNeed = hi + 1
		default:
			for lo < hi {
				mid := (lo + hi) / 2
				if m.FromStats(bs.statsAt(bs.GEDLo, mid)) <= t {
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
// hypothetical statistics — that GED beside |mcs| = mcsv — still fit:
// +Inf when even GEDHi fits, GEDLo−1 when not even GEDLo does. fits must
// be monotone in GED (once it fails it fails for every larger value),
// which any test that only gets harder as the measures grow is; it sees
// the very PairStats the scoring path would, so the cutoff cannot
// disagree with a score by a rounding error. Binary search on
// monotonicity: O(log(GEDHi−GEDLo)) calls. PlanRank decides one
// measure against a scalar threshold with it, the progressive skyline
// scan a whole GCS vector against its running front.
func (bs BoundStats) GEDLimit(mcsv int, fits func(PairStats) bool) float64 {
	lo, hi := int(bs.GEDLo), int(bs.GEDHi)
	switch {
	case fits(bs.statsAt(float64(hi), mcsv)):
		return math.Inf(1)
	case !fits(bs.statsAt(float64(lo), mcsv)):
		return float64(lo) - 1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(bs.statsAt(float64(mid), mcsv)) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return float64(lo)
}

// ScorePair computes the exact score of one pair under a single
// measure, running only the engines the measure consumes (a DistEd
// scan never pays for MCS, a DistMcs scan never pays for GED, feature
// measures run neither). The score is byte-identical to
// m.FromStats(ComputeHinted(g1, g2, opts, h)); inexact reports whether
// a capped engine that actually ran backed it. Only valid for Rankable
// measures.
func ScorePair(g1, g2 *graph.Graph, m Measure, opts Options, h PairHints) (score float64, inexact bool) {
	score, _, inexact = ScorePairWith(g1, g2, m, opts, h, EngineResults{})
	return score, inexact
}

// ScorePairWith is ScorePair with per-engine reuse: results already
// present in have (and consumed by m) are replayed instead of re-run,
// and got returns the engine results this call used — exactly the
// engines m consumes — for republication into a memo.
func ScorePairWith(g1, g2 *graph.Graph, m Measure, opts Options, h PairHints, have EngineResults) (score float64, got EngineResults, inexact bool) {
	v1, e1, d1 := histsOf(g1, h.Sig1)
	v2, e2, d2 := histsOf(g2, h.Sig2)
	ps := PairStats{
		Size1: g1.Size(), Size2: g2.Size(),
		Order1: g1.Order(), Order2: g2.Order(),
		VHistDist: v1.distance(v2),
		EHistDist: e1.distance(e2),
		DegL1:     degreeL1(d1, d2),
	}
	needGED, needMCS := EngineNeeds(m)
	if needGED {
		if !have.HasGED {
			gres := ged.Exact(g1, g2, ged.Options{MaxNodes: opts.GEDMaxNodes})
			have.GED, have.GEDExact, have.HasGED = gres.Distance, gres.Exact, true
		}
		ps.GED, ps.GEDExact = have.GED, have.GEDExact
		got.GED, got.GEDExact, got.HasGED = have.GED, have.GEDExact, true
		inexact = inexact || !have.GEDExact
	}
	if needMCS {
		if !have.HasMCS {
			mres := mcs.Exact(g1, g2, mcs.Options{MaxNodes: opts.MCSMaxNodes})
			have.MCS, have.MCSExact, have.HasMCS = mres.Mapping.Edges, mres.Exhausted, true
		}
		ps.MCS, ps.MCSExact = have.MCS, have.MCSExact
		got.MCS, got.MCSExact, got.HasMCS = have.MCS, have.MCSExact, true
		inexact = inexact || !have.MCSExact
	}
	return m.FromStats(ps), got, inexact
}

// ComputeRank is the threshold-fed pair evaluation: it either proves
// the pair's m-distance exceeds t (excluded=true, no score) or returns
// the exact score, byte-identical to m.FromStats(Compute(g1, g2,
// opts)). bs must bound the pair (tier-0 BoundPair, optionally with
// GEDLo raised by the branch bound); its exact fields supply the cheap
// statistics. inexact reports whether a capped engine backed the
// returned score.
func ComputeRank(g1, g2 *graph.Graph, m Measure, t float64, bs BoundStats, opts Options) (score float64, excluded, inexact bool) {
	score, _, excluded, inexact = ComputeRankResults(g1, g2, m, t, bs, opts)
	return score, excluded, inexact
}

// ComputeRankResults is ComputeRank additionally returning the plain
// engine results that back an included score — exactly the engines m
// consumes, for republication into a memo. Decision-run outcomes are
// never returned: a search truncated at the decision threshold is not
// the plain engine's answer (except the uncapped goal case, whose
// value is provably identical and is returned). Excluded candidates
// return empty results.
func ComputeRankResults(g1, g2 *graph.Graph, m Measure, t float64, bs BoundStats, opts Options) (score float64, got EngineResults, excluded, inexact bool) {
	lo, hi := bs.Interval(m)
	if lo > t {
		// The whole interval sits above the threshold: the reported
		// distance cannot fit. (The best-first scan normally stops
		// before such candidates; this catches a threshold that
		// tightened after the candidate was claimed.)
		return 0, EngineResults{}, true, false
	}
	plan := PlanRank(m, bs, t)
	ps := bs.statsAt(0, 0)
	certain := hi <= t // interval proves inclusion: skip decision runs
	if plan.NeedGED {
		gopts := ged.Options{MaxNodes: opts.GEDMaxNodes}
		if !certain && !math.IsInf(plan.GEDLimit, 1) {
			dopts := gopts
			dopts.Limit = &plan.GEDLimit
			dres := ged.Exact(g1, g2, dopts)
			switch {
			case dres.AboveLimit:
				return 0, EngineResults{}, true, false
			case opts.GEDMaxNodes == 0 && dres.Exact:
				// Uncapped decision searches that reach a goal are the
				// plain search truncated at nothing: the goal is the
				// true minimum, exactly what the full run would report.
				ps.GED, ps.GEDExact = dres.Distance, true
			}
		}
		if !ps.GEDExact {
			gres := ged.Exact(g1, g2, gopts)
			ps.GED, ps.GEDExact = gres.Distance, gres.Exact
		}
		if !ps.GEDExact {
			inexact = true
		}
		got.GED, got.GEDExact, got.HasGED = ps.GED, ps.GEDExact, true
	}
	if plan.NeedMCS {
		mopts := mcs.Options{MaxNodes: opts.MCSMaxNodes}
		if !certain && plan.MCSNeed > 0 {
			dopts := mopts
			dopts.Need = plan.MCSNeed
			if dres := mcs.Exact(g1, g2, dopts); dres.ProvedBelowNeed {
				return 0, EngineResults{}, true, false
			}
			// A decision run that reached Need stopped early; its
			// mapping is decision-grade only, so the survivor pays the
			// plain search below for the byte-identical score.
		}
		mres := mcs.Exact(g1, g2, mopts)
		ps.MCS, ps.MCSExact = mres.Mapping.Edges, mres.Exhausted
		if !mres.Exhausted {
			inexact = true
		}
		got.MCS, got.MCSExact, got.HasMCS = ps.MCS, ps.MCSExact, true
	}
	return m.FromStats(ps), got, false, inexact
}
