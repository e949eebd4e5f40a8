package ged

import (
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// Uniform-cost GED is a metric. These tests fuzz the metric axioms over
// seeded random graph triples — identity, symmetry and the triangle
// inequality — plus the certified LowerBound contract of capped and
// limit-stopped searches.

func randomTriple(rng *rand.Rand) (a, b, c *graph.Graph) {
	a = graph.Molecule(3+rng.Intn(5), rng)
	b = graph.Molecule(3+rng.Intn(5), rng)
	// c is sometimes a mutation of a, so the triple is not always three
	// unrelated graphs (tight triangles stress the inequality hardest).
	if rng.Intn(2) == 0 {
		c = graph.Mutate(a, 1+rng.Intn(3), graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rng)
	} else {
		c = graph.Molecule(3+rng.Intn(5), rng)
	}
	return a, b, c
}

// TestTriangleInequalityFuzz: d(a,c) <= d(a,b) + d(b,c) for exact
// uniform-cost GED on seeded random triples, plus symmetry and
// identity.
func TestTriangleInequalityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for i := 0; i < rounds; i++ {
		a, b, c := randomTriple(rng)
		dab := Exact(a, b, Options{}).Distance
		dbc := Exact(b, c, Options{}).Distance
		dac := Exact(a, c, Options{}).Distance
		if dac > dab+dbc {
			t.Fatalf("round %d: triangle violated: d(a,c)=%v > d(a,b)+d(b,c)=%v+%v\na=%v\nb=%v\nc=%v",
				i, dac, dab, dbc, a, b, c)
		}
		if dba := Exact(b, a, Options{}).Distance; dba != dab {
			t.Fatalf("round %d: asymmetric: d(a,b)=%v, d(b,a)=%v", i, dab, dba)
		}
		if daa := Exact(a, a, Options{}).Distance; daa != 0 {
			t.Fatalf("round %d: d(a,a)=%v", i, daa)
		}
	}
}

// TestLowerBoundCertified: Result.LowerBound must never exceed the true
// distance — for exact runs it equals it, for capped runs it is the
// search's frontier floor, and it must dominate the
// histogram bound the search started from whenever the search got
// anywhere.
func TestLowerBoundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		g1 := graph.Molecule(4+rng.Intn(5), rng)
		g2 := graph.Molecule(4+rng.Intn(5), rng)
		exact := Exact(g1, g2, Options{})
		if !exact.Exact {
			t.Fatalf("round %d: uncapped search not exact", i)
		}
		if exact.LowerBound != exact.Distance {
			t.Fatalf("round %d: exact LowerBound %v != Distance %v", i, exact.LowerBound, exact.Distance)
		}
		for _, cap := range []int64{1, 5, 50} {
			capped := Exact(g1, g2, Options{MaxNodes: cap})
			if capped.LowerBound > exact.Distance {
				t.Fatalf("round %d cap=%d: LowerBound %v exceeds true distance %v",
					i, cap, capped.LowerBound, exact.Distance)
			}
			if !capped.Exact && capped.Distance < exact.Distance {
				t.Fatalf("round %d cap=%d: capped Distance %v below true %v",
					i, cap, capped.Distance, exact.Distance)
			}
		}
		// Limit-stopped searches certify their bound too.
		if exact.Distance > 0 {
			limit := exact.Distance - 1
			dec := Exact(g1, g2, Options{Limit: &limit})
			if dec.AboveLimit {
				if dec.LowerBound > exact.Distance {
					t.Fatalf("round %d: AboveLimit LowerBound %v exceeds true %v", i, dec.LowerBound, exact.Distance)
				}
				if dec.LowerBound <= limit {
					t.Fatalf("round %d: AboveLimit bound %v does not prove > %v", i, dec.LowerBound, limit)
				}
			}
		}
	}
}
