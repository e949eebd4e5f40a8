package measure

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skygraph/internal/graph"
)

func statsFor(t *testing.T, g1, g2 *graph.Graph) PairStats {
	t.Helper()
	return Compute(g1, g2, Options{})
}

func TestIdenticalGraphsAllZero(t *testing.T) {
	g := graph.Cycle(5, "A", "x")
	s := statsFor(t, g, g.Clone())
	for _, m := range Default() {
		if v := m.FromStats(&s); v != 0 {
			t.Errorf("%s=%v on identical graphs", m.Name(), v)
		}
	}
}

func TestEmptyGraphConventions(t *testing.T) {
	e := graph.New("e")
	s := statsFor(t, e, e.Clone())
	if DistMcs.FromStats(&s) != 0 || DistGu.FromStats(&s) != 0 {
		t.Error("empty-vs-empty mcs distances should be 0")
	}
	if DistNEd.FromStats(&s) != 0 {
		t.Error("empty-vs-empty normalized GED should be 0")
	}
}

func TestDistancesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 12; trial++ {
		g1 := graph.Molecule(5+rng.Intn(3), rng)
		g2 := graph.Molecule(5+rng.Intn(3), rng)
		s := statsFor(t, g1, g2)
		for _, m := range []Measure{DistMcs, DistGu, DistNEd} {
			v := m.FromStats(&s)
			if v < 0 || v > 1 {
				t.Fatalf("%s=%v out of [0,1]", m.Name(), v)
			}
		}
		if DistEd.FromStats(&s) < 0 {
			t.Fatal("negative edit distance")
		}
	}
}

func TestSimGuStrongerThanSimMcs(t *testing.T) {
	// Paper, Section IV-C: SimGu(g1,g2) <= SimMcs(g1,g2) always holds.
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := graph.Molecule(4+r.Intn(4), r)
		g2 := graph.Molecule(4+r.Intn(4), r)
		s := Compute(g1, g2, Options{})
		return SimGu(s) <= SimMcs(s)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDistGuIsJaccardLike(t *testing.T) {
	// q = P4 (3 edges) embedded in host P6 (5 edges): mcs=3.
	q := graph.Path(4, "A", "x")
	host := graph.Path(6, "A", "x")
	s := statsFor(t, q, host)
	if s.MCS != 3 {
		t.Fatalf("mcs=%d", s.MCS)
	}
	wantMcs := 1 - 3.0/5.0
	wantGu := 1 - 3.0/(3+5-3.0)
	if v := DistMcs.FromStats(&s); math.Abs(v-wantMcs) > 1e-12 {
		t.Errorf("DistMcs=%v, want %v", v, wantMcs)
	}
	if v := DistGu.FromStats(&s); math.Abs(v-wantGu) > 1e-12 {
		t.Errorf("DistGu=%v, want %v", v, wantGu)
	}
}

func TestNormalizedEdMonotone(t *testing.T) {
	vals := []float64{0, 1, 2, 5, 100}
	prev := -1.0
	for _, x := range vals {
		v := DistNEd.FromStats(&PairStats{GED: x})
		if v <= prev || v >= 1 {
			t.Errorf("f(%v)=%v not in (prev,1)", x, v)
		}
		prev = v
	}
	if v := DistNEd.FromStats(&PairStats{GED: 6}); math.Abs(v-6.0/7.0) > 1e-12 {
		t.Errorf("f(6)=%v", v)
	}
}

func TestGCSVectorOrder(t *testing.T) {
	s := PairStats{GED: 4, MCS: 4, Size1: 6, Size2: 6}
	vec := GCS(&s, Default())
	if len(vec) != 3 {
		t.Fatalf("len=%d", len(vec))
	}
	if vec[0] != 4 {
		t.Errorf("vec[0]=%v", vec[0])
	}
	if math.Abs(vec[1]-(1-4.0/6.0)) > 1e-9 {
		t.Errorf("vec[1]=%v", vec[1])
	}
	if math.Abs(vec[2]-0.5) > 1e-9 {
		t.Errorf("vec[2]=%v", vec[2])
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"DistEd", "DistNEd", "DistMcs", "DistGu"} {
		m, err := ByName(name)
		if err != nil || m.Name() != name {
			t.Errorf("ByName(%s): %v, %v", name, m, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown measure accepted")
	}
}

func TestDefaultBasisNames(t *testing.T) {
	want := []string{"DistEd", "DistMcs", "DistGu"}
	for i, m := range Default() {
		if m.Name() != want[i] {
			t.Errorf("Default()[%d]=%s", i, m.Name())
		}
	}
	wantDiv := []string{"DistNEd", "DistMcs", "DistGu"}
	for i, m := range DiversityBasis() {
		if m.Name() != wantDiv[i] {
			t.Errorf("DiversityBasis()[%d]=%s", i, m.Name())
		}
	}
}

func TestComputeGCSConvenience(t *testing.T) {
	g := graph.Path(3, "A", "x")
	vec := ComputeGCS(g, g.Clone(), Options{})
	for i, v := range vec {
		if v != 0 {
			t.Errorf("vec[%d]=%v", i, v)
		}
	}
}
