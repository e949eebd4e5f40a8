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

// Isomorphic graphs must produce the same WL partition and — because
// colors are hashed canonically from structure, not numbered per graph —
// byte-identical feature histograms at every dimension and iteration
// cap. This is the invariance any embedding built on them relies on.
func TestWLHistogramIsomorphismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := ConnectedErdosRenyi(10, 0.3, []string{"A", "B"}, []string{"x", "y"}, rng)
		h := permute(g, rng)
		for _, dims := range []int{8, 32, 64} {
			for _, iters := range []int{1, 2, 0} {
				hg := WLHistogram(g, iters, dims)
				hh := WLHistogram(h, iters, dims)
				for d := range hg {
					if hg[d] != hh[d] {
						t.Fatalf("trial %d dims=%d iters=%d: histograms differ at bucket %d: %v vs %v",
							trial, dims, iters, d, hg, hh)
					}
				}
			}
		}
	}
}

// Histograms of structurally different graphs should differ (WL is
// strictly stronger than the label histogram: P4 and S4 share labels and
// degree-sum but not WL colors).
func TestWLHistogramSeparates(t *testing.T) {
	hp := WLHistogram(Path(4, "A", "x"), 0, 64)
	hs := WLHistogram(Star(4, "A", "x"), 0, 64)
	same := true
	for d := range hp {
		if hp[d] != hs[d] {
			same = false
			break
		}
	}
	if same {
		t.Error("WLHistogram failed to separate P4 from S4")
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

// Zero- and one-vertex graphs must not panic and must round-trip through
// the histogram path.
func TestWLTinyGraphs(t *testing.T) {
	empty := New("empty")
	if h := WLHistogram(empty, 0, 8); len(h) != 8 {
		t.Fatalf("empty histogram length %d", len(h))
	}
	one := New("one")
	one.AddVertex("A")
	h := WLHistogram(one, 0, 8)
	total := 0.0
	for _, x := range h {
		total += x
	}
	if total != 1 {
		t.Fatalf("one-vertex histogram mass %v", total)
	}
	if h2 := WLHistogram(one, 0, 0); h2 != nil {
		t.Fatalf("dims<=0 should return nil, got %v", h2)
	}
}
