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
			t.Fatal("uncapped reference search not exhausted")
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

// TestNeedCappedNoFalseProof: whatever the node cap does to a Need-fed
// search, ProvedBelowNeed may only appear when the true maximum really
// is below Need — here Need is set to the true maximum itself, so any
// certificate is a false proof.
func TestNeedCappedNoFalseProof(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 15; trial++ {
		g1 := graph.Molecule(6, rng)
		g2 := graph.Molecule(6, rng)
		truth := Exact(g1, g2, Options{}).Mapping.Edges
		if truth == 0 {
			continue
		}
		for _, cap := range []int64{0, 2, 50} {
			if res := Exact(g1, g2, Options{Need: truth, MaxNodes: cap}); res.ProvedBelowNeed {
				t.Fatalf("trial %d cap %d: proof claims |mcs| < %d but that IS the maximum", trial, cap, truth)
			}
		}
	}
}

// needGrid runs decision searches on a seeded grid — molecule pairs of
// order 4-7, every Need from 1 to the true maximum + 2, node caps 0, 3
// and 40 — and renders each ProvedBelowNeed verdict as '1' or '0'.
func needGrid() string {
	rng := rand.New(rand.NewSource(71))
	var b strings.Builder
	for trial := 0; trial < 30; trial++ {
		g1 := graph.Molecule(4+rng.Intn(4), rng)
		g2 := graph.Molecule(4+rng.Intn(4), rng)
		truth := Exact(g1, g2, Options{}).Mapping.Edges
		for need := 1; need <= truth+2; need++ {
			for _, cap := range []int64{0, 3, 40} {
				if Exact(g1, g2, Options{Need: need, MaxNodes: cap}).ProvedBelowNeed {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
	}
	return b.String()
}

// needGridVerdicts is needGrid's output recorded while decision runs
// still paid for the GreedyLB floor.
const needGridVerdicts = "000000100100000101101000101101000000101101101101000000101101000101101000000101101000101101000000000101101101101101101000101101000101101101101101101101101000101101000101101000101101111111000101101111111000000000100100000000101101000101101000101101101101101101000101101"

// TestDecisionVerdictsWithoutFloor: decision runs no longer compute the
// GreedyLB floor, and no verdict on the grid moved.
func TestDecisionVerdictsWithoutFloor(t *testing.T) {
	if got := needGrid(); got != needGridVerdicts {
		t.Fatalf("decision verdicts changed:\n got %s\nwant %s", got, needGridVerdicts)
	}
}

// TestCappedPlainRunFloored: a capped plain search still reports at
// least the GreedyLB mapping — exactly it under a one-node cap, where
// the search itself gets no further than its first seed pair.
func TestCappedPlainRunFloored(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	floored := 0
	for trial := 0; trial < 20; trial++ {
		g1 := graph.Molecule(5+rng.Intn(4), rng)
		g2 := graph.Molecule(5+rng.Intn(4), rng)
		lb := GreedyLB(g1, g2)
		for _, cap := range []int64{1, 3, 40} {
			res := Exact(g1, g2, Options{MaxNodes: cap})
			if res.Exhausted {
				continue
			}
			if res.Mapping.Edges < lb.Edges || (cap == 1 && res.Mapping.Edges != lb.Edges) {
				t.Fatalf("trial %d cap %d: capped run reports %d edges, GreedyLB %d", trial, cap, res.Mapping.Edges, lb.Edges)
			}
			checkWitness(t, g1, g2, res.Mapping)
			if cap == 1 && lb.Edges > 0 {
				floored++
			}
		}
	}
	if floored == 0 {
		t.Fatal("no capped run on the grid needed the floor")
	}
}
