package mcs

import (
	"math/rand"
	"strings"
	"testing"

	"skygraph/internal/graph"
)

// TestNeedDecision: a Need-fed search either certifies |mcs| < Need —
// and the true maximum really is below — or finds a witness of at
// least Need edges.
func TestNeedDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		g1 := graph.Molecule(3+rng.Intn(4), rng)
		g2 := graph.Molecule(3+rng.Intn(4), rng)
		truth := Exact(g1, g2, Options{})
		if !truth.Exhausted {
			t.Fatal("reference search not exhausted")
		}
		best := truth.Mapping.Edges
		for _, need := range []int{1, best, best + 1, best + 3} {
			if need < 1 {
				continue // Need 0 is a plain maximization, not a decision
			}
			res := Exact(g1, g2, Options{Need: need})
			if res.Exhausted {
				t.Fatalf("trial %d need %d: decision result claims exhaustive maximality", trial, need)
			}
			if res.ProvedBelowNeed {
				if best >= need {
					t.Fatalf("trial %d: proof claims |mcs| < %d but exact is %d", trial, need, best)
				}
				continue
			}
			if res.Mapping.Edges < need {
				t.Fatalf("trial %d need %d: no proof and no witness (best found %d, exact %d)",
					trial, need, res.Mapping.Edges, best)
			}
		}
	}
}

// needGrid runs decision searches on a seeded grid — molecule pairs of
// order 4-7, every Need from 1 to the true maximum + 2 — and renders
// each ProvedBelowNeed verdict as '1' or '0'.
func needGrid() string {
	rng := rand.New(rand.NewSource(71))
	var b strings.Builder
	for trial := 0; trial < 30; trial++ {
		g1 := graph.Molecule(4+rng.Intn(4), rng)
		g2 := graph.Molecule(4+rng.Intn(4), rng)
		truth := Exact(g1, g2, Options{}).Mapping.Edges
		for need := 1; need <= truth+2; need++ {
			if Exact(g1, g2, Options{Need: need}).ProvedBelowNeed {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// needGridVerdicts is needGrid's output recorded while decision runs
// still paid for the GreedyLB floor.
const needGridVerdicts = "00110110110011110011011001101100011111101101111111101101101111011110001100110110111111011"

// TestDecisionVerdictsWithoutFloor: decision runs no longer compute the
// GreedyLB floor, and no verdict on the grid moved.
func TestDecisionVerdictsWithoutFloor(t *testing.T) {
	if got := needGrid(); got != needGridVerdicts {
		t.Fatalf("decision verdicts changed:\n got %s\nwant %s", got, needGridVerdicts)
	}
}
