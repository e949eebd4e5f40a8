package measure

import (
	"errors"
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// requireContains asserts lo <= vec <= hi componentwise.
func requireContains(t *testing.T, label string, lo, vec, hi []float64) {
	t.Helper()
	if len(lo) != len(vec) || len(hi) != len(vec) {
		t.Fatalf("%s: dimension mismatch lo=%d vec=%d hi=%d", label, len(lo), len(vec), len(hi))
	}
	for d := range vec {
		if vec[d] < lo[d] || vec[d] > hi[d] {
			t.Fatalf("%s: dim %d: exact %v outside [%v, %v]\nlo=%v\nvec=%v\nhi=%v",
				label, d, vec[d], lo[d], hi[d], lo, vec, hi)
		}
	}
}

// TestBoundGCSAdmissible: the tier-0 signature intervals and the tier-1
// refined intervals must both contain the GCS vector Compute reports.
func TestBoundGCSAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bases := [][]Measure{Default(), Extended(), DiversityBasis()}
	for trial := 0; trial < 40; trial++ {
		g := graph.Molecule(3+rng.Intn(7), rng)
		q := graph.Molecule(3+rng.Intn(7), rng)
		sg, sq := NewSignature(g), NewSignature(q)
		bs0 := BoundPair(sg, sq)
		bs1 := Refine(g, q, bs0)
		if bs1.GEDHi > bs0.GEDHi || bs1.MCSLo < bs0.MCSLo {
			t.Fatalf("refinement loosened bounds: tier0=%+v tier1=%+v", bs0, bs1)
		}
		// Reusing the stored signatures must not change what Compute
		// reports (the equivalence guarantee rests on it).
		plain := Compute(g, q, Options{})
		hinted := ComputeHinted(g, q, Options{}, PairHints{Sig1: sg, Sig2: sq})
		if hinted != plain {
			t.Fatalf("hint reuse changed Compute: %+v vs %+v", hinted, plain)
		}
		for _, basis := range bases {
			vec := GCS(&plain, basis)
			lo0, hi0 := bs0.IntervalGCS(basis)
			requireContains(t, "tier0", lo0, vec, hi0)
			lo1, hi1 := bs1.IntervalGCS(basis)
			requireContains(t, "tier1", lo1, vec, hi1)
		}
	}
}

// TestBoundGCSEmptyGraphs: degenerate inputs keep the invariant.
func TestBoundGCSEmptyGraphs(t *testing.T) {
	empty := graph.New("empty")
	single := graph.New("single")
	single.AddVertex("C")
	rng := rand.New(rand.NewSource(11))
	mol := graph.Molecule(5, rng)
	pairs := [][2]*graph.Graph{{empty, empty}, {empty, mol}, {mol, empty}, {single, mol}, {single, single}}
	for _, p := range pairs {
		g, q := p[0], p[1]
		sg, sq := NewSignature(g), NewSignature(q)
		ps := Compute(g, q, Options{})
		vec := GCS(&ps, Default())
		lo, hi := BoundPair(sg, sq).IntervalGCS(Default())
		requireContains(t, g.Name()+"/"+q.Name(), lo, vec, hi)
		bs := Refine(g, q, BoundPair(sg, sq))
		lo1, hi1 := bs.IntervalGCS(Default())
		requireContains(t, "refined "+g.Name()+"/"+q.Name(), lo1, vec, hi1)
	}
}

// TestEveryNamedMeasureIsBoundable: each of the seven measures keeps
// its wire name and resolves through ByName, an unknown name keeps
// ByName's error text, a basis naming a measure twice is refused, and
// each measure is non-decreasing in GED and non-increasing in MCS over
// an integer grid of pair statistics (MCS <= min(Size1, Size2)): the
// monotonicity corners() and BoundStats.GEDLimit's binary search rely
// on to bound every basis a request can name.
func TestEveryNamedMeasureIsBoundable(t *testing.T) {
	table := []struct {
		m    Measure
		name string
	}{
		{DistEd, "DistEd"},
		{DistNEd, "DistNEd"},
		{DistMcs, "DistMcs"},
		{DistGu, "DistGu"},
		{DistVLabel, "DistVLabel"},
		{DistELabel, "DistELabel"},
		{DistDegree, "DistDegree"},
	}
	if len(wireNames) != len(table) {
		t.Fatalf("%d measures; want the 7 of the table", len(wireNames))
	}
	for _, tc := range table {
		if got := tc.m.Name(); got != tc.name {
			t.Errorf("measure %d is named %q; want %q", tc.m, got, tc.name)
		}
		if m, err := ByName(tc.name); err != nil || m != tc.m {
			t.Errorf("ByName(%q) = %d, %v; want %d", tc.name, m, err, tc.m)
		}
		at := func(ged, mcs, s1, s2 int) float64 {
			ps := PairStats{
				GED: float64(ged), MCS: mcs, Size1: s1, Size2: s2,
				Order1: s1 + 1, Order2: s2, VHistDist: s2, EHistDist: s1, DegL1: s1 + s2,
			}
			return tc.m.FromStats(&ps)
		}
		for s1 := 0; s1 <= 4; s1++ {
			for s2 := 0; s2 <= 4; s2++ {
				for mcs := 0; mcs <= min(s1, s2); mcs++ {
					for ged := 0; ged <= 10; ged++ {
						v := at(ged, mcs, s1, s2)
						if up := at(ged+1, mcs, s1, s2); up < v {
							t.Fatalf("%s falls with GED at sizes (%d, %d), mcs %d: %v at GED %d, %v at %d", tc.name, s1, s2, mcs, v, ged, up, ged+1)
						}
						if mcs < min(s1, s2) {
							if up := at(ged, mcs+1, s1, s2); up > v {
								t.Fatalf("%s rises with MCS at sizes (%d, %d), GED %d: %v at mcs %d, %v at %d", tc.name, s1, s2, ged, v, mcs, up, mcs+1)
							}
						}
					}
				}
			}
		}
	}
	if _, err := ByName("DistBogus"); err == nil || err.Error() != `measure: unknown measure "DistBogus"` {
		t.Errorf("ByName(DistBogus) error = %v", err)
	}
	if _, err := BasisByNames([]string{"DistEd", "DistMcs", "DistEd"}); !errors.Is(err, ErrRepeatedMeasure) {
		t.Errorf("BasisByNames with a repeated name: error = %v; want ErrRepeatedMeasure", err)
	}
}
