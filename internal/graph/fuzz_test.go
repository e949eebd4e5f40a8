package graph

import (
	"strings"
	"testing"
)

// graphFromBytes deterministically decodes fuzz input into a small
// labeled graph (2..10 vertices), so the canonical-form path of
// QueryHash is reachable. Returns nil for inputs too short to decode.
func graphFromBytes(data []byte) *Graph {
	if len(data) < 3 {
		return nil
	}
	vlabels := []string{"C", "N", "O", "S"}
	elabels := []string{"-", "="}
	n := 2 + int(data[0])%9
	g := New("fuzz")
	for i := 0; i < n; i++ {
		g.AddVertex(vlabels[int(data[1+i%(len(data)-1)])%len(vlabels)])
	}
	for i := 2; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, elabels[int(data[i]>>4)%len(elabels)])
	}
	return g
}

// rotate returns g with its vertices renumbered by i -> (i+k) mod n:
// an isomorphic graph with a different literal encoding.
func rotate(g *Graph, k int) *Graph {
	n := g.Order()
	if n == 0 {
		return g.Clone()
	}
	k = ((k % n) + n) % n
	out := New(g.Name() + "-rot")
	for i := 0; i < n; i++ {
		out.AddVertex(g.VertexLabel((i - k + n) % n))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge((e.U+k)%n, (e.V+k)%n, e.Label)
	}
	return out
}

// QueryHashCanonical reports whether QueryHash derives g's hash from
// its canonical form, i.e. whether the hash is a full isomorphism
// invariant for g. Large or budget-exhausting graphs fall back to the
// literal (vertex-order-sensitive) encoding and return false, so only
// when it holds for both sides must isomorphic renumberings collide.
func QueryHashCanonical(g *Graph) bool {
	_, ok := canonPayload(g)
	return ok
}

// FuzzQueryHash checks the two cache-safety properties of QueryHash:
// isomorphic renumberings collide whenever the canonical path is taken,
// and structurally different graphs never collide.
func FuzzQueryHash(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip("oversized input")
		}
		g := graphFromBytes(data)
		if g == nil {
			t.Skip("input too short")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}
		h := QueryHash(g)
		if h != QueryHash(g) {
			t.Fatal("QueryHash is not deterministic")
		}

		rot := rotate(g, 1+int(data[0])%3)
		if QueryHashCanonical(g) && QueryHashCanonical(rot) {
			if QueryHash(rot) != h {
				t.Fatalf("isomorphic renumbering hashes apart:\n%s\nvs\n%s", g, rot)
			}
		}

		// Relabel one vertex to a label outside the alphabet: the label
		// histogram changes, so the result cannot be isomorphic to g and
		// must hash differently.
		mut := g.Clone()
		mut.RelabelVertex(0, "Zz")
		if Isomorphic(g, mut) {
			t.Fatalf("fresh-label relabel produced an isomorphic graph: %s", g)
		}
		if QueryHash(mut) == h {
			t.Fatalf("non-isomorphic graphs collide:\n%s\nvs\n%s", g, mut)
		}
	})
}

// FuzzLGFRoundTrip feeds arbitrary text to the LGF parser; whatever it
// accepts must survive a marshal/parse round trip unchanged, including
// labels with escaped whitespace and percent signs.
func FuzzLGFRoundTrip(f *testing.F) {
	f.Add("graph g\nv 0 C\nv 1 N\ne 0 1 -\n")
	f.Add("graph a\nv 0 %20\n# comment\ngraph b\nv 0 %00\nv 1 x%25y\ne 0 1 %09\n")
	f.Add("graph w\nv 0 a\nv 1 b\nv 2 c\ne 0 1 x\ne 1 2 y\ne 0 2 z\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<16 {
			t.Skip("oversized input")
		}
		gs, err := ReadLGF(strings.NewReader(text))
		if err != nil {
			t.Skip("parser rejected input")
		}
		for _, g := range gs {
			enc := MarshalLGF(g)
			back, err := ParseLGF(enc)
			if err != nil {
				t.Fatalf("re-parse of marshaled graph failed: %v\n%s", err, enc)
			}
			if !back.Equal(g) {
				t.Fatalf("round trip changed the graph:\nbefore %s\nafter  %s\nencoding:\n%s", g, back, enc)
			}
			if back.Name() != g.Name() {
				t.Fatalf("round trip changed the name: %q -> %q", g.Name(), back.Name())
			}
		}
	})
}
