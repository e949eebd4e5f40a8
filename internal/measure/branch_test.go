package measure

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skygraph/internal/assign"
	"skygraph/internal/dataset"
	"skygraph/internal/ged"
	"skygraph/internal/graph"
)

// branchAlphabet labels vertices and edges alike: repeated labels and
// the empty string are labels like any other.
var branchAlphabet = [4]string{"", "A", "B", "A"}

// fuzzBranchGraph decodes a graph of order <= 5 from the front of *data:
// one byte for the order, one per vertex label, one per vertex pair (low
// bit = edge present, next two = its label). Missing bytes read as zero.
func fuzzBranchGraph(data *[]byte) *graph.Graph {
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
		g.AddVertex(branchAlphabet[next()%4])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if b := next(); b&1 == 1 {
				g.MustAddEdge(u, v, branchAlphabet[(b>>1)%4])
			}
		}
	}
	return g
}

// fullBranchMatrix is the doubled branch-distance matrix of the pair
// with no twin cancelled, padded like branchBuf.costs pads.
func fullBranchMatrix(s, o *Signature) [][]float64 {
	vm1, vm2 := mergeRanks(nil, nil, s.VHist, o.VHist)
	em1, em2 := mergeRanks(nil, nil, s.EHist, o.EHist)
	rows, ids := decodeBranches(nil, nil, s.branches, vm1, em1)
	cols, _ := decodeBranches(nil, ids, o.branches, vm2, em2)
	if len(rows) < len(cols) {
		rows, cols = cols, rows
	}
	m := make([][]float64, len(rows))
	for i, a := range rows {
		m[i] = make([]float64, len(rows))
		for j := range m[i] {
			if j < len(cols) {
				m[i][j] = float64(a.cost2(cols[j]))
			} else {
				m[i][j] = float64(2 + len(a.edges))
			}
		}
	}
	return m
}

// reversed returns g with its vertices numbered in reverse: the same
// graph up to isomorphism.
func reversed(g *graph.Graph) *graph.Graph {
	r := graph.New(g.Name())
	n := g.Order()
	for v := n - 1; v >= 0; v-- {
		r.AddVertex(g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		r.MustAddEdge(n-1-e.U, n-1-e.V, e.Label)
	}
	return r
}

// FuzzBranchBound checks the branch bound on arbitrary small pairs: it
// never exceeds the exact distance (which ged's FuzzExactVsBruteForce
// pins to brute force), never undercuts the histogram bound, is
// symmetric, does not depend on vertex numbering, and equals brute-force assignment over every branch — so
// cancelling identical twins first loses nothing — while the pooled
// solver's total equals brute force on the matrix it was handed.
func FuzzBranchBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 0, 5, 3, 1, 1, 2, 7, 1, 4})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 1, 2, 3, 0, 1, 3, 0, 0, 5, 0, 0, 7, 1, 0, 3})
	f.Add([]byte{1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1 := fuzzBranchGraph(&data)
		g2 := fuzzBranchGraph(&data)
		s1, s2 := NewSignature(g1), NewSignature(g2)
		lb := s1.BranchLB(s2)
		d := ged.Exact(g1, g2, ged.Options{}).Distance
		if lb > d {
			t.Fatalf("BranchLB %v > GED %v\n%s\n%s", lb, d, g1, g2)
		}
		if h := s1.HistLB(s2); lb < h {
			t.Fatalf("BranchLB %v < HistLB %v\n%s\n%s", lb, h, g1, g2)
		}
		if back := s2.BranchLB(s1); back != lb {
			t.Fatalf("BranchLB %v one way, %v the other\n%s\n%s", lb, back, g1, g2)
		}
		if rev := NewSignature(reversed(g1)); !slices.Equal(rev.branches, s1.branches) {
			t.Fatalf("branches %v, %v with the vertex order reversed\n%s", s1.branches, rev.branches, g1)
		}
		if _, full, _ := assign.BruteForce(fullBranchMatrix(s1, s2)); math.Ceil(full/2) != lb {
			t.Fatalf("BranchLB %v, brute force over every branch %v\n%s\n%s", lb, math.Ceil(full/2), g1, g2)
		}
		var buf branchBuf
		cost := buf.costs(s1, s2)
		_, got, err := buf.solver.Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if _, want, _ := assign.BruteForce(cost); got != want {
			t.Fatalf("pooled Solve total %v, brute force %v on %v", got, want, cost)
		}
	})
}

// TestBranchBoundAdmissible: on the harness-shaped golden pairs the
// bound never exceeds the GED measure.Compute reports, uncapped or
// capped (where the report is the bipartite upper bound).
func TestBranchBoundAdmissible(t *testing.T) {
	for i, p := range boundGoldenPairs() {
		g, q := p[0], p[1]
		lb := NewSignature(g).BranchLB(NewSignature(q))
		for _, maxNodes := range []int64{0, 1, 16} {
			if d := Compute(g, q, Options{GEDMaxNodes: maxNodes}).GED; lb > d {
				t.Fatalf("pair %d GEDMaxNodes=%d: BranchLB %v > reported GED %v\n%s\n%s", i, maxNodes, lb, d, g, q)
			}
		}
	}
}

// TestBranchBoundPower: on order-5 clustered families with 1-edit
// queries — the cold-ranked shape — most candidates the histogram bound
// lets through a radius of 2 but whose distance exceeds it are proved
// out by the branch bound.
func TestBranchBoundPower(t *testing.T) {
	const radius = 2
	roots := dataset.MoleculeDB(40, 5, 5, 3401)
	family := dataset.NoisyQueries(roots, 1000, 2, 3402)
	passed, proved := 0, 0
	for _, q := range dataset.NoisyQueries(family, 5, 1, 3403) {
		sq := NewSignature(q)
		for _, g := range family {
			sg := NewSignature(g)
			if sg.HistLB(sq) > radius {
				continue
			}
			if ged.Exact(g, q, ged.Options{}).Distance <= radius {
				continue
			}
			passed++
			if sg.BranchLB(sq) > radius {
				proved++
			}
		}
	}
	if passed < 100 {
		t.Fatalf("only %d candidates pass the histogram bound yet exceed the radius; the fixture lost its shape", passed)
	}
	share := float64(proved) / float64(passed)
	if share < 0.8 {
		t.Fatalf("branch bound proves %d of %d histogram survivors out (%.0f%%), want >= 80%%", proved, passed, 100*share)
	}
	t.Logf("branch bound proves %d of %d histogram survivors out (%.0f%%)", proved, passed, 100*share)
}

// branchPairs builds signature pairs in the benchmark harness's shapes:
// order-5 clustered molecules (near: a query one edit from a sibling of
// its own family; far: a member of another family) and order-6
// molecules against a 2-edit query.
func branchPairs(n int, seed int64) (near, far, mol6 [][2]*Signature) {
	rng := rand.New(rand.NewSource(seed))
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	member := func(root *graph.Graph) *graph.Graph { return graph.Mutate(root, 2, atoms, bonds, rng) }
	pair := func(g, q *graph.Graph) [2]*Signature { return [2]*Signature{NewSignature(g), NewSignature(q)} }
	for i := 0; i < n; i++ {
		root, other := graph.Molecule(5, rng), graph.Molecule(5, rng)
		q := graph.Mutate(member(root), 1, atoms, bonds, rng)
		near = append(near, pair(member(root), q))
		far = append(far, pair(member(other), q))
		g6 := graph.Molecule(6, rng)
		mol6 = append(mol6, pair(graph.Molecule(6, rng), graph.Mutate(g6, 2, atoms, bonds, rng)))
	}
	return near, far, mol6
}

var sinkBound float64

// TestBranchLBAllocs: a warm BranchLB takes its matrix and the solver's
// scratch from a pool and allocates nothing.
func TestBranchLBAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	near, far, mol6 := branchPairs(8, 3411)
	pairs := append(append(near, far...), mol6...)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		sinkBound = p[0].BranchLB(p[1])
	}); avg != 0 {
		t.Errorf("BranchLB allocates %.2f objects per pair, want 0", avg)
	}
}

func BenchmarkBranchLB(b *testing.B) {
	near, far, mol6 := branchPairs(64, 3421)
	for _, c := range []struct {
		name  string
		pairs [][2]*Signature
	}{{"near", near}, {"far", far}, {"mol6", mol6}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				sinkBound = p[0].BranchLB(p[1])
			}
		})
	}
}
