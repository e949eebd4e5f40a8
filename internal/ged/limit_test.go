package ged

import (
	"math"
	"math/rand"
	"testing"

	"skygraph/internal/graph"
)

// TestLimitDecision: a limit-fed search either proves the distance
// exceeds the limit — and the true distance really does — or returns
// exactly the plain search's result.
func TestLimitDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		g1 := graph.Molecule(3+rng.Intn(4), rng)
		g2 := graph.Molecule(3+rng.Intn(4), rng)
		truth := Exact(g1, g2, Options{})
		for _, limit := range []float64{-1, 0, truth.Distance - 1, truth.Distance - 0.5, truth.Distance, truth.Distance + 0.5, truth.Distance + 2, 1e9, math.Inf(1)} {
			l := limit
			res := Exact(g1, g2, Options{Limit: &l})
			if res.AboveLimit {
				if truth.Distance <= limit {
					t.Fatalf("trial %d limit %v: proof claims > limit but exact distance is %v", trial, limit, truth.Distance)
				}
				if res.Distance > truth.Distance {
					t.Fatalf("trial %d limit %v: proven lower bound %v exceeds exact %v", trial, limit, res.Distance, truth.Distance)
				}
				continue
			}
			if !res.Exact || res.Distance != truth.Distance {
				t.Fatalf("trial %d limit %v: non-proof result %+v differs from exact %v", trial, limit, res, truth.Distance)
			}
		}
	}
}
