package measure

// This file adds cheap feature-based local distances beyond the paper's
// three structural measures. The paper argues each index captures "one
// aspect in the graph structure" (Section IV); these measures extend the
// GCS basis to higher dimensions for the d-sweep experiments (E8) at
// negligible cost: all derive from label histograms and degree sequences
// already computed by Compute. The three measures (constants in
// measure.go, formulas in Measure.FromStats):
//
//   - DistVLabel is the normalized vertex-label histogram distance: the
//     minimum number of vertex relabel/insert/delete operations implied
//     by the label multisets alone, VHistDist, divided by max(|V1|,
//     |V2|). It lower-bounds the vertex-related fraction of the edit
//     distance and reacts only to label composition, not structure.
//   - DistELabel is its edge analogue: EHistDist / max(|g1|, |g2|).
//   - DistDegree compares connectivity profiles: the L1 distance between
//     the sorted degree sequences (shorter padded with zeros), DegL1,
//     normalized by the total degree mass 2(|E1|+|E2|). Two graphs with
//     identical degree sequences score 0 regardless of labels.
//
// Each is 0 when its denominator is (two empty or two edgeless graphs).

// Extended returns the paper basis extended with the feature measures:
// (DistEd, DistMcs, DistGu, DistVLabel, DistELabel, DistDegree).
func Extended() []Measure {
	return []Measure{DistEd, DistMcs, DistGu, DistVLabel, DistELabel, DistDegree}
}

// degreeL1 is the L1 distance of two descending degree sequences, the
// shorter padded with zeros.
func degreeL1(a, b []int) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	at := func(s []int, i int) int {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	sum := 0
	for i := 0; i < n; i++ {
		d := at(a, i) - at(b, i)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}
