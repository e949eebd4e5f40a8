package ged

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
// arbitrary small pairs: Exact equals the minimum mapping cost, the
// histogram bound and the bipartite cost bracket it, a decision run
// either returns that same distance or proves it above the limit — never
// for a limit the distance does not exceed, never with a bound above it.
func FuzzExactVsBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 0, 5, 3, 1, 1, 2, 7, 1, 4})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 1, 2, 3, 0, 1, 3, 0, 0, 5, 0, 0, 7, 1, 0, 3})
	f.Add([]byte{1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1 := fuzzGraph(&data)
		g2 := fuzzGraph(&data)
		want := bruteDistance(g1, g2)
		res := Exact(g1, g2, Options{})
		if !res.Exact || res.Distance != want {
			t.Fatalf("Exact = %+v, brute force %v\n%s\n%s", res, want, g1, g2)
		}
		if got := EditCostOfMapping(g1, g2, res.Mapping); got != want {
			t.Fatalf("mapping %v costs %v, distance %v\n%s\n%s", res.Mapping, got, want, g1, g2)
		}
		if lb := LowerBound(g1, g2); lb > want {
			t.Fatalf("LowerBound %v > distance %v\n%s\n%s", lb, want, g1, g2)
		}
		if ub := Bipartite(g1, g2); ub.Distance < want {
			t.Fatalf("Bipartite %v < distance %v\n%s\n%s", ub.Distance, want, g1, g2)
		}
		for _, limit := range []float64{want - 1, want, want + 1} {
			l := limit
			dec := Exact(g1, g2, Options{Limit: &l})
			switch {
			case dec.AboveLimit && (limit >= want || dec.Distance > want):
				t.Fatalf("limit %v: false proof %+v, distance %v\n%s\n%s", limit, dec, want, g1, g2)
			case !dec.AboveLimit && (!dec.Exact || dec.Distance != want):
				t.Fatalf("limit %v: %+v, distance %v\n%s\n%s", limit, dec, want, g1, g2)
			}
		}
	})
}
