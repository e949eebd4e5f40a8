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
// Because DistMcs and DistGu share the mcs computation and DistEd is
// expensive, measures are evaluated from a PairStats value computed once
// per graph pair.
package measure

import (
	"fmt"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
)

// PairStats carries the expensive quantities shared by all measures for one
// graph pair.
type PairStats struct {
	// GED is the (uniform-cost) graph edit distance, or an upper bound when
	// GEDExact is false.
	GED float64
	// GEDExact reports whether GED is provably minimal.
	GEDExact bool
	// MCS is |mcs(g1,g2)|: the edge count of a maximum common connected
	// subgraph, or a lower bound when MCSExact is false.
	MCS int
	// MCSExact reports whether MCS is provably maximal.
	MCSExact bool
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

// Options bounds the exact engines; zero values mean exact, unbounded
// computation. The struct is wire- and cache-friendly: it serializes to
// JSON and is comparable, so it can sit in a map key as it is.
type Options struct {
	// GEDMaxNodes caps A* expansions (0 = unlimited). On cap the bipartite
	// upper bound is used and GEDExact is false.
	GEDMaxNodes int64 `json:"ged_max_nodes,omitempty"`
	// MCSMaxNodes caps the MCS branch and bound (0 = unlimited).
	MCSMaxNodes int64 `json:"mcs_max_nodes,omitempty"`
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
	gres := ged.Exact(g1, g2, ged.Options{MaxNodes: opts.GEDMaxNodes})
	mres := mcs.Exact(g1, g2, mcs.Options{MaxNodes: opts.MCSMaxNodes})
	v1, e1, d1 := histsOf(g1, h.Sig1)
	v2, e2, d2 := histsOf(g2, h.Sig2)
	return PairStats{
		GED:       gres.Distance,
		GEDExact:  gres.Exact,
		MCS:       mres.Mapping.Edges,
		MCSExact:  mres.Exhausted,
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
	// GED and GEDExact mirror PairStats (value or bipartite bound);
	// MCS and MCSExact are the MCS engine analogues.
	GED float64
	MCS int

	GEDExact, MCSExact bool
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
		GEDExact:  r.GEDExact,
		MCS:       r.MCS,
		MCSExact:  r.MCSExact,
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

// Measure is a local graph distance derived from PairStats. Smaller is more
// similar, matching the paper's "the smaller the better" convention
// (Definition 1 and 12).
type Measure interface {
	// Name returns the measure identifier, e.g. "DistEd".
	Name() string
	// FromStats derives the distance value from shared pair statistics.
	FromStats(PairStats) float64
}

// DistEd is the graph edit distance measure (unnormalized, as used in
// Table III of the paper).
type DistEd struct{}

func (DistEd) Name() string { return "DistEd" }

// FromStats returns the edit distance.
func (DistEd) FromStats(s PairStats) float64 { return s.GED }

// DistNEd is the normalized edit distance f(x) = x/(1+x) used by the
// diversity refinement (Section VII). It maps [0,∞) into [0,1).
type DistNEd struct{}

func (DistNEd) Name() string { return "DistNEd" }

// FromStats returns GED/(1+GED).
func (DistNEd) FromStats(s PairStats) float64 { return s.GED / (1 + s.GED) }

// DistMcs is the Bunke–Shearer mcs distance (Eq. 2).
type DistMcs struct{}

func (DistMcs) Name() string { return "DistMcs" }

// FromStats returns 1 − |mcs|/max(|g1|,|g2|); by convention two empty
// graphs have distance 0.
func (DistMcs) FromStats(s PairStats) float64 {
	m := s.Size1
	if s.Size2 > m {
		m = s.Size2
	}
	if m == 0 {
		return 0
	}
	return 1 - float64(s.MCS)/float64(m)
}

// DistGu is the Wallis graph-union distance (Eq. 3), the graph analogue of
// the Jaccard distance.
type DistGu struct{}

func (DistGu) Name() string { return "DistGu" }

// FromStats returns 1 − |mcs|/(|g1|+|g2|−|mcs|); two empty graphs have
// distance 0.
func (DistGu) FromStats(s PairStats) float64 {
	union := s.Size1 + s.Size2 - s.MCS
	if union == 0 {
		return 0
	}
	return 1 - float64(s.MCS)/float64(union)
}

// SimMcs returns the Bunke–Shearer similarity |mcs|/max (Definition 9).
func SimMcs(s PairStats) float64 { return 1 - (DistMcs{}).FromStats(s) }

// SimGu returns the graph-union similarity (Definition 10).
func SimGu(s PairStats) float64 { return 1 - (DistGu{}).FromStats(s) }

// Default is the paper's three-measure GCS basis (Section V):
// (DistEd, DistMcs, DistGu).
func Default() []Measure { return []Measure{DistEd{}, DistMcs{}, DistGu{}} }

// DiversityBasis is the basis of the Section VII refinement:
// (DistNEd, DistMcs, DistGu).
func DiversityBasis() []Measure { return []Measure{DistNEd{}, DistMcs{}, DistGu{}} }

// builtins is every measure ByName resolves. Each one is Boundable (and
// so Rankable), which the server relies on to always prune.
var builtins = []Measure{DistEd{}, DistNEd{}, DistMcs{}, DistGu{}, DistVLabel{}, DistELabel{}, DistDegree{}}

// ByName returns the built-in measure with the given name.
func ByName(name string) (Measure, error) {
	for _, m := range builtins {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("measure: unknown measure %q", name)
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

// BasisByNames resolves measure names back into a basis; an empty list
// yields the paper's default basis.
func BasisByNames(names []string) ([]Measure, error) {
	if len(names) == 0 {
		return Default(), nil
	}
	out := make([]Measure, len(names))
	for i, n := range names {
		m, err := ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// GCS evaluates the compound similarity vector (Definition 11) of the pair
// statistics under the given measure basis.
func GCS(s PairStats, basis []Measure) []float64 {
	out := make([]float64, len(basis))
	for i, m := range basis {
		out[i] = m.FromStats(s)
	}
	return out
}

// ComputeGCS is Compute followed by GCS on the default basis.
func ComputeGCS(g, q *graph.Graph, opts Options) []float64 {
	return GCS(Compute(g, q, opts), Default())
}
