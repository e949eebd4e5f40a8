package mcs

import (
	"testing"

	"skygraph/internal/graph"
)

// fuzzAlphabet labels vertices and edges alike; the empty string is a
// label like any other.
var fuzzAlphabet = [4]string{"", "A", "B", "x"}

// fuzzGraph decodes a graph of order <= 5 from the front of *data: one
// byte for the order, one per vertex label, one per vertex pair (low bit
// = edge present, next two = its label). Missing bytes read as zero.
func fuzzGraph(data *[]byte) *graph.Graph {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	g := graph.New("f")
	n := int(next()) % 6
	for i := 0; i < n; i++ {
		g.AddVertex(fuzzAlphabet[next()%4])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if b := next(); b&1 == 1 {
				g.MustAddEdge(u, v, fuzzAlphabet[(b>>1)%4])
			}
		}
	}
	return g
}

// FuzzExactVsBruteForce checks the kernel against the definition on
// arbitrary small pairs: Exact equals the brute-force
// maximum, is exhausted and realizes its witness; GreedyLB never claims
// more; and a decision run at the maximum never proves it below, while
// one just above always does.
func FuzzExactVsBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 0, 5, 3, 1, 1, 2, 7, 1, 4})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 1, 1, 2, 1, 2, 1, 0, 3, 1, 1, 0, 1, 1, 0, 1, 5, 1, 2, 1, 1, 2, 1, 1, 0, 1, 1, 0, 3, 1, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1 := fuzzGraph(&data)
		g2 := fuzzGraph(&data)
		want := bruteMCS(g1, g2)
		res := Exact(g1, g2, Options{})
		if !res.Exhausted || res.Mapping.Edges != want {
			t.Fatalf("Exact = %+v, brute force %d\n%s\n%s", res, want, g1, g2)
		}
		checkWitness(t, g1, g2, res.Mapping)
		if lb := GreedyLB(g1, g2); lb.Edges > want {
			t.Fatalf("GreedyLB %d > |mcs| %d\n%s\n%s", lb.Edges, want, g1, g2)
		}
		if dec := Exact(g1, g2, Options{Need: want}); dec.ProvedBelowNeed {
			t.Fatalf("need %d: false proof %+v\n%s\n%s", want, dec, g1, g2)
		}
		if dec := Exact(g1, g2, Options{Need: want + 1}); !dec.ProvedBelowNeed {
			t.Fatalf("need %d: no proof %+v, |mcs| %d\n%s\n%s", want+1, dec, want, g1, g2)
		}
	})
}
