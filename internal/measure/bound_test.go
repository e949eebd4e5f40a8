package measure

import (
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
// refined intervals must both contain the GCS vector Compute reports —
// for unbounded exact evaluation and for capped evaluation (where
// Compute returns a GED upper bound no dearer than the bipartite one and
// the greedy-floored MCS the bounds are built around).
func TestBoundGCSAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bases := [][]Measure{Default(), Extended(), DiversityBasis()}
	evals := []Options{
		{}, // exact
		{GEDMaxNodes: 50, MCSMaxNodes: 50},
		{GEDMaxNodes: 1, MCSMaxNodes: 1},
	}
	for trial := 0; trial < 40; trial++ {
		g := graph.Molecule(3+rng.Intn(7), rng)
		q := graph.Molecule(3+rng.Intn(7), rng)
		sg, sq := NewSignature(g), NewSignature(q)
		bs0 := BoundPair(sg, sq)
		bs1 := Refine(g, q, bs0)
		if bs1.GEDHi > bs0.GEDHi || bs1.MCSLo < bs0.MCSLo {
			t.Fatalf("refinement loosened bounds: tier0=%+v tier1=%+v", bs0, bs1)
		}
		for _, eval := range evals {
			// Reusing the stored signatures must not change what
			// Compute reports (the equivalence guarantee rests on it).
			plain := Compute(g, q, eval)
			hinted := ComputeHinted(g, q, eval, PairHints{Sig1: sg, Sig2: sq})
			if hinted != plain {
				t.Fatalf("hint reuse changed Compute: %+v vs %+v", hinted, plain)
			}
			for _, basis := range bases {
				vec := GCS(plain, basis)
				lo0, hi0 := bs0.IntervalGCS(basis)
				requireContains(t, "tier0", lo0, vec, hi0)
				lo1, hi1 := bs1.IntervalGCS(basis)
				requireContains(t, "tier1", lo1, vec, hi1)
			}
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
		vec := GCS(Compute(g, q, Options{}), Default())
		lo, hi := BoundPair(sg, sq).IntervalGCS(Default())
		requireContains(t, g.Name()+"/"+q.Name(), lo, vec, hi)
		bs := Refine(g, q, BoundPair(sg, sq))
		lo1, hi1 := bs.IntervalGCS(Default())
		requireContains(t, "refined "+g.Name()+"/"+q.Name(), lo1, vec, hi1)
	}
}

// TestBoundableRejectsForeignMeasures: pruning must not engage for a
// basis containing a measure whose monotonicity is unknown.
func TestBoundableRejectsForeignMeasures(t *testing.T) {
	if !Boundable(Default()) || !Boundable(Extended()) || !Boundable(DiversityBasis()) {
		t.Fatal("built-in bases must be boundable")
	}
	if Boundable([]Measure{DistEd{}, fakeMeasure{}}) {
		t.Fatal("foreign measure must make the basis unboundable")
	}
}

// TestEveryNamedMeasureIsBoundable: every measure a request can name
// resolves through ByName to a Rankable, Boundable built-in. The server
// prunes every request on that guarantee and keeps no table fallback.
func TestEveryNamedMeasureIsBoundable(t *testing.T) {
	if len(builtins) != 7 {
		t.Fatalf("ByName resolves %d measures; want the 7 built-ins", len(builtins))
	}
	for _, want := range builtins {
		m, err := ByName(want.Name())
		if err != nil || m != want {
			t.Fatalf("ByName(%s) = %v, %v", want.Name(), m, err)
		}
		if !Rankable(m) || !Boundable([]Measure{m}) {
			t.Errorf("%s resolves by name but is not Rankable and Boundable", m.Name())
		}
	}
}

type fakeMeasure struct{}

func (fakeMeasure) Name() string                { return "Fake" }
func (fakeMeasure) FromStats(PairStats) float64 { return 0 }
