package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCanonicalStringInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(1+r.Intn(7), 0.4, []string{"A", "B"}, []string{"x", "y"}, r)
		return CanonicalString(g) == CanonicalString(permute(g, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalEqualMatchesVF2(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(1+r.Intn(6), 0.5, []string{"A", "B"}, []string{"x"}, r)
		h := ErdosRenyi(1+r.Intn(6), 0.5, []string{"A", "B"}, []string{"x"}, r)
		return (CanonicalString(g) == CanonicalString(h)) == Isomorphic(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalStringSeparates(t *testing.T) {
	a := Path(4, "A", "x")
	b := Star(4, "A", "x")
	if CanonicalString(a) == CanonicalString(b) {
		t.Error("P4 and S4 share canonical string")
	}
	c := Path(4, "A", "x")
	c.RelabelEdge(1, 2, "y")
	if CanonicalString(a) == CanonicalString(c) {
		t.Error("edge relabel not reflected")
	}
	// C6 and two triangles share every degree and label count.
	twoTriangles := New("2tri")
	twoTriangles.AddVertices(6, "A")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		twoTriangles.MustAddEdge(e[0], e[1], "x")
	}
	if CanonicalString(Cycle(6, "A", "x")) == CanonicalString(twoTriangles) {
		t.Error("C6 and 2xC3 share canonical string")
	}
}

func TestCanonicalStringEmpty(t *testing.T) {
	if CanonicalString(New("e")) != "canon:0:" {
		t.Error("empty canonical string")
	}
}

func TestCanonicalDeduplication(t *testing.T) {
	// Generate permuted duplicates; canonical strings must collapse them.
	rng := rand.New(rand.NewSource(47))
	base := Molecule(7, rng)
	seen := map[string]int{}
	for i := 0; i < 5; i++ {
		seen[CanonicalString(permute(base, rng))]++
	}
	if len(seen) != 1 {
		t.Errorf("permuted copies produced %d distinct canonical strings", len(seen))
	}
}
