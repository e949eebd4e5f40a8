package measure

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skygraph/internal/graph"
)

func TestFeatureMeasuresIdenticalZero(t *testing.T) {
	g := graph.Cycle(5, "A", "x")
	s := Compute(g, g.Clone(), Options{})
	for _, m := range []Measure{DistVLabel, DistELabel, DistDegree} {
		if v := m.FromStats(&s); v != 0 {
			t.Errorf("%s=%v on identical graphs", m.Name(), v)
		}
	}
}

func TestFeatureMeasuresRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := graph.ErdosRenyi(1+r.Intn(7), 0.4, []string{"A", "B"}, []string{"x", "y"}, r)
		g2 := graph.ErdosRenyi(1+r.Intn(7), 0.4, []string{"A", "B"}, []string{"x", "y"}, r)
		s := Compute(g1, g2, Options{})
		for _, m := range []Measure{DistVLabel, DistELabel, DistDegree} {
			v := m.FromStats(&s)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDistVLabelValues(t *testing.T) {
	g1 := graph.Path(4, "A", "x") // 4x A
	g2 := graph.Path(4, "B", "x") // 4x B
	s := Compute(g1, g2, Options{})
	if v := DistVLabel.FromStats(&s); v != 1 {
		t.Errorf("DistVLabel=%v, want 1 (fully disjoint labels)", v)
	}
	g3 := graph.Path(4, "A", "x")
	g3.RelabelVertex(0, "B")
	s2 := Compute(g1, g3, Options{})
	if v := DistVLabel.FromStats(&s2); v != 0.25 {
		t.Errorf("DistVLabel=%v, want 0.25 (1 of 4 differs)", v)
	}
}

func TestDistELabelValues(t *testing.T) {
	g1 := graph.Path(3, "A", "x")
	g2 := graph.Path(3, "A", "y")
	s := Compute(g1, g2, Options{})
	if v := DistELabel.FromStats(&s); v != 1 {
		t.Errorf("DistELabel=%v, want 1", v)
	}
}

func TestDistDegreeStructureOnly(t *testing.T) {
	// Path P4 vs star S4: degree sequences (2,2,1,1) vs (3,1,1,1): L1 = 2,
	// total degree mass 2*(3+3)=12 -> 1/6.
	p := graph.Path(4, "A", "x")
	s := graph.Star(4, "A", "x")
	st := Compute(p, s, Options{})
	want := 2.0 / 12.0
	if v := DistDegree.FromStats(&st); v != want {
		t.Errorf("DistDegree=%v, want %v", v, want)
	}
	// Same structure, different labels: degree distance must be 0.
	q := graph.Path(4, "B", "y")
	st2 := Compute(p, q, Options{})
	if v := DistDegree.FromStats(&st2); v != 0 {
		t.Errorf("DistDegree=%v, want 0 (labels must not matter)", v)
	}
}

func TestDegreeL1(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{3, 1}, nil, 4},
		{[]int{3, 2, 1}, []int{3, 2, 1}, 0},
		{[]int{4, 1}, []int{2, 2, 1}, 4},
	}
	for i, c := range cases {
		if got := degreeL1(c.a, c.b); got != c.want {
			t.Errorf("case %d: %d, want %d", i, got, c.want)
		}
		if got := degreeL1(c.b, c.a); got != c.want {
			t.Errorf("case %d sym: %d, want %d", i, got, c.want)
		}
	}
}

func TestExtendedBasis(t *testing.T) {
	ext := Extended()
	if len(ext) != 6 {
		t.Fatalf("len=%d", len(ext))
	}
	for _, name := range []string{"DistVLabel", "DistELabel", "DistDegree"} {
		m, err := ByName(name)
		if err != nil || m.Name() != name {
			t.Errorf("ByName(%s): %v %v", name, m, err)
		}
	}
}

func TestHistDistsMatchGEDLowerBound(t *testing.T) {
	// VHistDist + EHistDist must equal ged.LowerBound by construction and
	// therefore never exceed the exact GED.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		g1 := graph.Molecule(6, rng)
		g2 := graph.Molecule(6, rng)
		s := Compute(g1, g2, Options{})
		if lb := float64(s.VHistDist + s.EHistDist); lb > s.GED+1e-9 {
			t.Fatalf("histogram bound %v exceeds GED %v", lb, s.GED)
		}
	}
}
