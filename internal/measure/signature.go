package measure

import (
	"iter"
	"slices"
	"strings"
	"sync/atomic"

	"skygraph/internal/graph"
)

// Signature is the per-graph summary backing the filter-and-refine
// pipeline: everything the cheap GCS bounds need, precomputed once (at
// database insert time) so no query ever re-walks a stored graph's
// vertices and edges just to bound it. All fields are isomorphism
// invariants.
type Signature struct {
	// Order and Size are the vertex and edge counts.
	Order, Size int
	// VHist and EHist are the vertex- and edge-label histograms.
	VHist, EHist Histogram
	// THist is the edge-type histogram: each edge keyed by its edge label
	// plus both endpoint vertex labels (endpoint pair sorted). An edge of
	// a common subgraph must agree on all three, so type-multiset
	// intersection upper-bounds |mcs| far tighter than edge labels alone
	// when the label alphabet is small (molecules: C-C single vs C-N
	// single are different types, same edge label).
	THist Histogram
	// Degrees is the degree sequence, descending.
	Degrees []int
	// branches holds every vertex's branch id (label plus sorted
	// incident edge labels, named through the branch dictionary),
	// ascending, and local spells out the branches its local ids name:
	// those the dictionary lacked when the signature was built
	// (branch.go).
	branches []uint32
	local    []branchKey
	// table is the signature's BranchTable once a bound used it as the
	// query.
	table atomic.Pointer[BranchTable]
}

// NewSignature computes g's signature. Callers must not mutate g
// afterwards (the database enforces this already for stored graphs).
// It never adds to the branch dictionary: a branch the dictionary lacks
// gets a local id.
func NewSignature(g *graph.Graph) *Signature {
	return newSignature(g, false)
}

// InternSignature is NewSignature for a graph entering the store: the
// branch dictionary first gains every branch of g it lacks. The store's
// insert path, which WAL replay runs too, is its only caller, so only
// stored graphs grow the dictionary.
func InternSignature(g *graph.Graph) *Signature {
	return newSignature(g, true)
}

func newSignature(g *graph.Graph, intern bool) *Signature {
	edges := g.Edges()
	vh, eh := labelHistograms(g, edges)
	types := make([]string, 0, len(edges))
	for _, e := range edges {
		types = append(types, edgeType(g.VertexLabel(e.U), g.VertexLabel(e.V), e.Label))
	}
	s := &Signature{
		Order:   g.Order(),
		Size:    g.Size(),
		VHist:   vh,
		EHist:   eh,
		THist:   histogramOf(types),
		Degrees: g.DegreeSequence(),
	}
	s.branches, s.local = branchIDs(g, edges, intern)
	return s
}

// edgeType renders the canonical (endpoint labels, edge label) key of
// an edge, orientation-independent.
func edgeType(va, vb, label string) string {
	if vb < va {
		va, vb = vb, va
	}
	return va + "\x00" + label + "\x00" + vb
}

// HistLB returns the label-histogram lower bound on the uniform-cost
// edit distance between the signatures' graphs — the same bound as
// ged.LowerBound, served from the precomputed histograms. The scans
// take it as the GEDLo of RankInterval and BoundPair, which walk the
// same two merges themselves; this standalone form is the reference
// the bound golden and the branch-bound tests check against.
func (s *Signature) HistLB(o *Signature) float64 {
	return float64(s.VHist.distance(o.VHist) + s.EHist.distance(o.EHist))
}

// labelCount is one entry of a Histogram.
type labelCount struct {
	label string
	n     int
}

// Histogram is a label multiset as (label, count) entries in ascending
// label order, no label twice and no zero count. Built once per
// signature, it makes the histogram distance and the multiset
// intersection one merge-walk over two short slices each: no hashing
// and no map iteration on the bound path.
type Histogram []labelCount

// histogramOf counts labels, sorting the slice in place.
func histogramOf(labels []string) Histogram {
	slices.Sort(labels)
	distinct := 0
	for i := range labels {
		if i == 0 || labels[i] != labels[i-1] {
			distinct++
		}
	}
	h := make(Histogram, 0, distinct)
	for _, l := range labels {
		if n := len(h); n > 0 && h[n-1].label == l {
			h[n-1].n++
			continue
		}
		h = append(h, labelCount{label: l, n: 1})
	}
	return h
}

// labelHistograms returns the vertex- and edge-label histograms of g,
// whose edges are edges.
func labelHistograms(g *graph.Graph, edges []graph.Edge) (vh, eh Histogram) {
	vl := make([]string, g.Order())
	for v := range vl {
		vl[v] = g.VertexLabel(v)
	}
	el := make([]string, 0, len(edges))
	for _, e := range edges {
		el = append(el, e.Label)
	}
	return histogramOf(vl), histogramOf(el)
}

// Labels yields the distinct labels in ascending order.
func (h Histogram) Labels() iter.Seq[string] {
	return func(yield func(string) bool) {
		for _, e := range h {
			if !yield(e.label) {
				return
			}
		}
	}
}

// distance is graph.HistogramDistance over two Histograms: the larger
// of the total surplus and the total deficit of h against o.
func (h Histogram) distance(o Histogram) int {
	surplus, deficit := h.merge(o)
	return max(surplus, deficit)
}

// merge walks h and o once, returning the total surplus of h over o
// (Σ max(h−o, 0)) and the total deficit (Σ max(o−h, 0)). The surplus
// also yields the multiset intersection: Σ min(h, o) is h's total minus
// the surplus, with no second walk.
func (h Histogram) merge(o Histogram) (surplus, deficit int) {
	i, j := 0, 0
	for i < len(h) && j < len(o) {
		switch c := strings.Compare(h[i].label, o[j].label); {
		case c < 0:
			surplus += h[i].n
			i++
		case c > 0:
			deficit += o[j].n
			j++
		default:
			if d := h[i].n - o[j].n; d > 0 {
				surplus += d
			} else {
				deficit -= d
			}
			i++
			j++
		}
	}
	for ; i < len(h); i++ {
		surplus += h[i].n
	}
	for ; j < len(o); j++ {
		deficit += o[j].n
	}
	return surplus, deficit
}

// intersection is the multiset intersection size of h and o.
func (h Histogram) intersection(o Histogram) int {
	n, i, j := 0, 0, 0
	for i < len(h) && j < len(o) {
		switch c := strings.Compare(h[i].label, o[j].label); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n += min(h[i].n, o[j].n)
			i++
			j++
		}
	}
	return n
}
