package graph

import (
	"math/rand"
	"testing"
)

// The hashed recoloring loop must be deterministic: same graph, same
// colors, same round count, every run.
func TestWLColorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := ConnectedErdosRenyi(12, 0.25, []string{"A", "B", "C"}, []string{"x", "y"}, rng)
		c1, r1 := WLColors(g)
		c2, r2 := WLColors(g)
		if r1 != r2 {
			t.Fatalf("trial %d: round counts differ: %d vs %d", trial, r1, r2)
		}
		for v := range c1 {
			if c1[v] != c2[v] {
				t.Fatalf("trial %d: colors differ at v=%d", trial, v)
			}
		}
	}
}

// The iteration cap must bound the rounds executed, and a capped run
// must still be deterministic and refine monotonically (never more
// classes than the stable partition).
func TestWLColorsCapped(t *testing.T) {
	g := Path(9, "A", "x")
	_, full := WLColors(g)
	if full < 2 {
		t.Fatalf("path9 should need multiple rounds, got %d", full)
	}
	colors, rounds := WLColorsCapped(g, 1)
	if rounds != 1 {
		t.Fatalf("cap 1: executed %d rounds", rounds)
	}
	// After one round endpoints (degree 1) split from interior vertices.
	if colors[0] != colors[8] || colors[0] == colors[4] {
		t.Fatalf("cap 1: unexpected partition %v", colors)
	}
	// The capped partition must agree with itself across runs.
	colors2, _ := WLColorsCapped(g, 1)
	if !samePartition(colors, colors2) {
		t.Fatal("capped run not deterministic")
	}
}

// Zero- and one-vertex graphs must not panic: the empty graph has no
// colors and runs no round, a single vertex has one color.
func TestWLTinyGraphs(t *testing.T) {
	if colors, rounds := WLColors(New("empty")); len(colors) != 0 || rounds != 0 {
		t.Fatalf("empty graph: colors %v after %d rounds", colors, rounds)
	}
	one := New("one")
	one.AddVertex("A")
	if colors, _ := WLColors(one); len(colors) != 1 || colors[0] != 0 {
		t.Fatalf("one-vertex colors %v", colors)
	}
}
