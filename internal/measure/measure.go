// Package measure implements the local graph distance measures of the
// paper's Section IV and the Graph Compound Similarity vector (GCS,
// Definition 11) built from them:
//
//   - DistEd: graph edit distance with uniform costs (Definition 8).
//   - DistNEd: its normalization x/(1+x) used by the diversity step
//     (Section VII).
//   - DistMcs: 1 − |mcs|/max(|g1|,|g2|) (Definition 9 / Eq. 2).
//   - DistGu: 1 − |mcs|/(|g1|+|g2|−|mcs|) (Definition 10 / Eq. 3).
//
// features.go adds three cheap feature measures (DistVLabel, DistELabel,
// DistDegree). The set is closed: Measure is a small value with one
// constant per measure, and ByName is the only conversion from outside
// input. Because DistMcs and DistGu share the mcs computation and DistEd
// is expensive, measures are evaluated from a PairStats value computed
// once per graph pair.
package measure

import (
	"errors"
	"fmt"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
)

// PairStats carries the expensive quantities shared by all measures for one
// graph pair.
type PairStats struct {
	// GED is the (uniform-cost) graph edit distance.
	GED float64
	// MCS is |mcs(g1,g2)|: the edge count of a maximum common connected
	// subgraph.
	MCS int
	// Size1, Size2 are |g1| and |g2| (edge counts).
	Size1, Size2 int
	// Order1, Order2 are the vertex counts.
	Order1, Order2 int
	// VHistDist and EHistDist are the label-histogram distances over
	// vertices and edges (inputs to DistVLabel/DistELabel and exactly the
	// two halves of ged.LowerBound).
	VHistDist, EHistDist int
	// DegL1 is the L1 distance between the sorted degree sequences
	// (input to DistDegree).
	DegL1 int
}

// Options tunes how the exact engines run, never what they report: a
// run that is not stopped reports the pair's exact statistics whatever
// the options hold, so they belong in no cache key.
type Options struct {
	// Stop, when closed, stops the exact engines (ged.Options.Stop,
	// mcs.Options.Stop); what a stopped evaluation reports is not the
	// pair's value, and the caller must discard it. Queries pass their
	// context's Done channel; nil never stops.
	Stop <-chan struct{}
}

// Compute evaluates the shared statistics for the pair (g1, g2).
func Compute(g1, g2 *graph.Graph, opts Options) PairStats {
	return ComputeHinted(g1, g2, opts, PairHints{})
}

// PairHints carries precomputed material ComputeHinted can reuse for a
// pair: the graphs' stored signatures, sparing the per-pair histogram
// and degree-sequence rebuild. Either field is optional; hints must
// describe the same graphs in the same orientation.
type PairHints struct {
	Sig1, Sig2 *Signature
}

// ComputeHinted is Compute reusing whatever hints the caller has. The
// returned statistics are identical to plain Compute's either way.
func ComputeHinted(g1, g2 *graph.Graph, opts Options, h PairHints) PairStats {
	gres := ged.Exact(g1, g2, ged.Options{Stop: opts.Stop})
	mres := mcs.Exact(g1, g2, mcs.Options{Stop: opts.Stop})
	v1, e1, d1 := histsOf(g1, h.Sig1)
	v2, e2, d2 := histsOf(g2, h.Sig2)
	return PairStats{
		GED:       gres.Distance,
		MCS:       mres.Mapping.Edges,
		Size1:     g1.Size(),
		Size2:     g2.Size(),
		Order1:    g1.Order(),
		Order2:    g2.Order(),
		VHistDist: v1.distance(v2),
		EHistDist: e1.distance(e2),
		DegL1:     degreeL1(d1, d2),
	}
}

// EngineResults carries the raw exact-engine outputs of one pair in
// one orientation: what a scan's engine runs reported, before the
// cheap statistics are assembled around them (PairStatsFrom).
type EngineResults struct {
	GED float64
	MCS int
}

// PairStatsFrom assembles the pair statistics of a graph pair known by
// its stored signatures and the engine results a scan computed for it:
// no graph access, byte-identical to ComputeHinted on the same pair
// (signatures carry exactly the order/size/histogram/degree material
// the cheap fields derive from). Fields of an engine that did not run
// are zero; callers must only consume measures whose engines ran.
func PairStatsFrom(s1, s2 *Signature, r EngineResults) PairStats {
	return PairStats{
		GED:       r.GED,
		MCS:       r.MCS,
		Size1:     s1.Size,
		Size2:     s2.Size,
		Order1:    s1.Order,
		Order2:    s2.Order,
		VHistDist: s1.VHist.distance(s2.VHist),
		EHistDist: s1.EHist.distance(s2.EHist),
		DegL1:     degreeL1(s1.Degrees, s2.Degrees),
	}
}

// histsOf returns g's label histograms and degree sequence, from the
// signature when one is supplied.
func histsOf(g *graph.Graph, sig *Signature) (vh, eh Histogram, deg []int) {
	if sig != nil {
		return sig.VHist, sig.EHist, sig.Degrees
	}
	vh, eh = labelHistograms(g, g.Edges())
	return vh, eh, g.DegreeSequence()
}

// Measure is one of the local graph distances of the closed set below,
// derived from PairStats. Smaller is more similar, matching the paper's
// "the smaller the better" convention (Definition 1 and 12). Every
// measure is non-decreasing in GED and non-increasing in MCS, which the
// interval bounds (bound.go) and the ranked cutoffs (rank.go) rely on.
type Measure uint8

const (
	// DistEd is the graph edit distance (unnormalized, as used in Table
	// III of the paper).
	DistEd Measure = iota
	// DistNEd is the normalized edit distance f(x) = x/(1+x) used by the
	// diversity refinement (Section VII). It maps [0,∞) into [0,1).
	DistNEd
	// DistMcs is the Bunke–Shearer mcs distance (Eq. 2).
	DistMcs
	// DistGu is the Wallis graph-union distance (Eq. 3), the graph
	// analogue of the Jaccard distance.
	DistGu
	// DistVLabel, DistELabel and DistDegree are the feature measures of
	// features.go.
	DistVLabel
	DistELabel
	DistDegree
)

// wireNames holds each measure's wire name, indexed by the measure.
var wireNames = [...]string{
	DistEd:     "DistEd",
	DistNEd:    "DistNEd",
	DistMcs:    "DistMcs",
	DistGu:     "DistGu",
	DistVLabel: "DistVLabel",
	DistELabel: "DistELabel",
	DistDegree: "DistDegree",
}

// Name returns the measure identifier, e.g. "DistEd".
func (m Measure) Name() string { return wireNames[m] }

// FromStats derives the distance value from shared pair statistics:
//
//   - DistEd: the edit distance;
//   - DistNEd: GED/(1+GED);
//   - DistMcs: 1 − |mcs|/max(|g1|,|g2|);
//   - DistGu: 1 − |mcs|/(|g1|+|g2|−|mcs|);
//   - the feature measures: see features.go.
//
// By convention two empty graphs have DistMcs and DistGu distance 0.
func (m Measure) FromStats(s *PairStats) float64 {
	switch m {
	case DistEd:
		return s.GED
	case DistNEd:
		return s.GED / (1 + s.GED)
	case DistMcs:
		return ratioDist(s.MCS, max(s.Size1, s.Size2))
	case DistGu:
		return ratioDist(s.MCS, s.Size1+s.Size2-s.MCS)
	case DistVLabel:
		return ratio(s.VHistDist, max(s.Order1, s.Order2))
	case DistELabel:
		return ratio(s.EHistDist, max(s.Size1, s.Size2))
	case DistDegree:
		return ratio(s.DegL1, 2*(s.Size1+s.Size2))
	}
	panic(fmt.Sprintf("measure: no measure %d", m))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ratioDist returns 1 − a/b, or 0 when b is 0.
func ratioDist(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 1 - float64(a)/float64(b)
}

// SimMcs returns the Bunke–Shearer similarity |mcs|/max (Definition 9).
func SimMcs(s PairStats) float64 { return 1 - DistMcs.FromStats(&s) }

// SimGu returns the graph-union similarity (Definition 10).
func SimGu(s PairStats) float64 { return 1 - DistGu.FromStats(&s) }

// Default is the paper's three-measure GCS basis (Section V):
// (DistEd, DistMcs, DistGu).
func Default() []Measure { return []Measure{DistEd, DistMcs, DistGu} }

// DiversityBasis is the basis of the Section VII refinement:
// (DistNEd, DistMcs, DistGu).
func DiversityBasis() []Measure { return []Measure{DistNEd, DistMcs, DistGu} }

// ByName returns the measure with the given name.
func ByName(name string) (Measure, error) {
	for m, n := range wireNames {
		if n == name {
			return Measure(m), nil
		}
	}
	return 0, fmt.Errorf("measure: unknown measure %q", name)
}

// BasisNames returns the measure names of a basis, in order — the
// serializable form of a basis for wire formats and cache keys.
func BasisNames(basis []Measure) []string {
	out := make([]string, len(basis))
	for i, m := range basis {
		out[i] = m.Name()
	}
	return out
}

// ErrRepeatedMeasure reports a basis that names one measure twice.
var ErrRepeatedMeasure = errors.New("measure: basis names a measure twice")

// BasisByNames resolves measure names back into a basis; an empty list
// yields the paper's default basis. A basis names each measure at most
// once (ErrRepeatedMeasure otherwise), so it holds at most seven.
func BasisByNames(names []string) ([]Measure, error) {
	if len(names) == 0 {
		return Default(), nil
	}
	out := make([]Measure, 0, len(wireNames))
	var seen uint8
	for _, n := range names {
		m, err := ByName(n)
		if err != nil {
			return nil, err
		}
		if seen&(1<<m) != 0 {
			return nil, fmt.Errorf("%w: %s", ErrRepeatedMeasure, n)
		}
		seen |= 1 << m
		out = append(out, m)
	}
	return out, nil
}

// GCS evaluates the compound similarity vector (Definition 11) of the pair
// statistics under the given measure basis.
func GCS(s *PairStats, basis []Measure) []float64 {
	out := make([]float64, len(basis))
	for i, m := range basis {
		out[i] = m.FromStats(s)
	}
	return out
}

// ComputeGCS is Compute followed by GCS on the default basis.
func ComputeGCS(g, q *graph.Graph, opts Options) []float64 {
	s := Compute(g, q, opts)
	return GCS(&s, Default())
}
