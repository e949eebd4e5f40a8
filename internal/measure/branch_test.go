package measure

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// refBranch is a branch spelled out for the reference bound: the
// vertex label and the incident edges' labels, ascending.
type refBranch struct {
	label string
	edges []string
}

// refBranches returns g's branches, ascending.
func refBranches(g *graph.Graph) []refBranch {
	bs := make([]refBranch, g.Order())
	for v := range bs {
		bs[v].label = g.VertexLabel(v)
	}
	for _, e := range g.Edges() {
		bs[e.U].edges = append(bs[e.U].edges, e.Label)
		bs[e.V].edges = append(bs[e.V].edges, e.Label)
	}
	for _, b := range bs {
		slices.Sort(b.edges)
	}
	slices.SortFunc(bs, compareRefBranches)
	return bs
}

func compareRefBranches(a, b refBranch) int {
	if c := strings.Compare(a.label, b.label); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.edges), len(b.edges)); c != 0 {
		return c
	}
	return slices.Compare(a.edges, b.edges)
}

// refCost2 is twice the branch distance between a and b.
func refCost2(a, b refBranch) float64 {
	c := 0
	if a.label != b.label {
		c = 2
	}
	common, i, j := 0, 0, 0
	for i < len(a.edges) && j < len(b.edges) {
		switch c := strings.Compare(a.edges[i], b.edges[j]); {
		case c == 0:
			common++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return float64(c + max(len(a.edges), len(b.edges)) - common)
}

// refBranchMatrix is the doubled branch-distance matrix of g1 and g2:
// rows are the larger graph's branches, columns the other's padded with
// empty branches. With cancel, identical twins are dropped first.
func refBranchMatrix(g1, g2 *graph.Graph, cancel bool) [][]float64 {
	rows, cols := refBranches(g1), refBranches(g2)
	if cancel {
		var ra, rb []refBranch
		i, j := 0, 0
		for i < len(rows) && j < len(cols) {
			switch c := compareRefBranches(rows[i], cols[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				ra = append(ra, rows[i])
				i++
			default:
				rb = append(rb, cols[j])
				j++
			}
		}
		rows, cols = append(ra, rows[i:]...), append(rb, cols[j:]...)
	}
	if len(rows) < len(cols) {
		rows, cols = cols, rows
	}
	m := make([][]float64, len(rows))
	for i, a := range rows {
		m[i] = make([]float64, len(rows))
		for j := range m[i] {
			if j < len(cols) {
				m[i][j] = refCost2(a, cols[j])
			} else {
				m[i][j] = float64(2 + len(a.edges))
			}
		}
	}
	return m
}

// BranchLB is the branch lower bound between s's and o's graphs from
// o's table: o.BranchTable().LB(s), with o in the query's place.
func (s *Signature) BranchLB(o *Signature) float64 {
	return o.BranchTable().LB(s)
}

// referenceBranchLB is the branch bound computed the direct way, from
// the graphs' branches spelled out as strings: cancel twins, solve the
// assignment over what is left, halve and round up. It is what every
// BranchTable bound must equal, bit for bit.
func referenceBranchLB(g1, g2 *graph.Graph) float64 {
	_, total, err := assign.Solve(refBranchMatrix(g1, g2, true))
	if err != nil {
		panic(err)
	}
	return math.Ceil(total / 2)
}

var freshLabels atomic.Int64

// freshLabel returns a vertex label no branch in the dictionary has.
func freshLabel() string {
	return fmt.Sprintf("fresh-%d", freshLabels.Add(1))
}

// requireTableMatchesReference checks the bound of s1 (g1's signature)
// and s2 (g2's) from both tables against the reference.
func requireTableMatchesReference(t *testing.T, label string, g1, g2 *graph.Graph, s1, s2 *Signature) {
	t.Helper()
	want := referenceBranchLB(g1, g2)
	if got := s2.BranchTable().LB(s1); got != want {
		t.Fatalf("%s: table bound %v, reference %v\n%s\n%s", label, got, want, g1, g2)
	}
	if got := s1.BranchTable().LB(s2); got != want {
		t.Fatalf("%s: table bound %v the other way, reference %v\n%s\n%s", label, got, want, g1, g2)
	}
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
// pins to brute force), never undercuts the histogram bound, equals the
// reference from both tables, does not depend on vertex numbering, and
// equals brute-force assignment over every branch — so cancelling
// identical twins first loses nothing — while the pooled solver's total
// equals brute force on the matrix it was handed. The first graph is
// interned like a stored one and the second resolved like a query, so
// both dictionary and local ids meet.
func FuzzBranchBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 0, 5, 3, 1, 1, 2, 7, 1, 4})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 1, 2, 3, 0, 1, 3, 0, 0, 5, 0, 0, 7, 1, 0, 3})
	f.Add([]byte{1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1 := fuzzBranchGraph(&data)
		g2 := fuzzBranchGraph(&data)
		s1, s2 := InternSignature(g1), NewSignature(g2)
		lb := s1.BranchLB(s2)
		d := ged.Exact(g1, g2, ged.Options{}).Distance
		if lb > d {
			t.Fatalf("BranchLB %v > GED %v\n%s\n%s", lb, d, g1, g2)
		}
		if h := s1.HistLB(s2); lb < h {
			t.Fatalf("BranchLB %v < HistLB %v\n%s\n%s", lb, h, g1, g2)
		}
		requireTableMatchesReference(t, "fuzz", g1, g2, s1, s2)
		for _, p := range []struct {
			g *graph.Graph
			s *Signature
		}{{g1, s1}, {g2, s2}} {
			if rev := NewSignature(reversed(p.g)); !slices.Equal(rev.branches, p.s.branches) {
				t.Fatalf("branch ids %v, %v with the vertex order reversed\n%s", p.s.branches, rev.branches, p.g)
			}
		}
		if _, full, _ := assign.BruteForce(refBranchMatrix(g1, g2, false)); math.Ceil(full/2) != lb {
			t.Fatalf("BranchLB %v, brute force over every branch %v\n%s\n%s", lb, math.Ceil(full/2), g1, g2)
		}
		var buf boundBuf
		cost := s2.BranchTable().costs(&buf, s1)
		_, got, err := buf.solver.Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if _, want, _ := assign.BruteForce(cost); got != want {
			t.Fatalf("pooled Solve total %v, brute force %v on %v", got, want, cost)
		}
	})
}

// TestBranchTableMatchesReference pins the table's bound to the
// reference bit for bit, from both tables, on seeded pairs whose stored
// graph is interned and whose query is resolved — as the scans meet
// them — and on the edge cases of the id scheme: empty graphs, a query
// with no twin, queries whose branches the dictionary has never seen
// (against a stored graph and against each other, where two local id
// spaces meet), and a stored graph whose branches are interned only
// after the query's table was built.
func TestBranchTableMatchesReference(t *testing.T) {
	near, far, mol6 := branchPairs(100, 3431)
	for name, pairs := range map[string][][2]*graph.Graph{"near": near, "far": far, "mol6": mol6} {
		for i, p := range pairs {
			sg, sq := InternSignature(p[0]), NewSignature(p[1])
			requireTableMatchesReference(t, fmt.Sprintf("%s pair %d", name, i), p[0], p[1], sg, sq)
		}
	}

	empty, mol := graph.New("e"), graph.Molecule(5, rand.New(rand.NewSource(3432)))
	se, sm := NewSignature(empty), InternSignature(mol)
	requireTableMatchesReference(t, "empty-empty", empty, empty, se, NewSignature(empty))
	requireTableMatchesReference(t, "empty-mol", empty, mol, se, sm)

	// A path O=O=O shares no branch with a path of single C bonds.
	path := func(atom, bond string) *graph.Graph {
		g := graph.New(atom + bond)
		for v := 0; v < 3; v++ {
			g.AddVertex(atom)
		}
		g.MustAddEdge(0, 1, bond)
		g.MustAddEdge(1, 2, bond)
		return g
	}
	cc, oo := path("C", "-"), path("O", "=")
	scc, soo := InternSignature(cc), NewSignature(oo)
	var buf boundBuf
	if n := len(soo.BranchTable().costs(&buf, scc)); n != 3 {
		t.Fatalf("no-twin pair: residual side %d, want 3", n)
	}
	requireTableMatchesReference(t, "no twins", cc, oo, scc, soo)

	// Labels no other test or run uses: the dictionary has never seen
	// them.
	unseen1, unseen2 := path(freshLabel(), "-"), path(freshLabel(), "=")
	s1, s2 := NewSignature(unseen1), NewSignature(unseen2)
	if s1.branches[0]&localBit == 0 || s2.branches[0]&localBit == 0 {
		t.Fatalf("unseen branches got dictionary ids %v %v", s1.branches, s2.branches)
	}
	requireTableMatchesReference(t, "unseen vs stored", unseen1, cc, s1, scc)
	requireTableMatchesReference(t, "unseen vs unseen", unseen1, unseen2, s1, s2)
	requireTableMatchesReference(t, "unseen vs itself", unseen1, unseen1, s1, NewSignature(unseen1))

	// The query's table is built before the stored graph's branches — one
	// the query has, one it lacks — enter the dictionary.
	lateA := freshLabel()
	q := path(lateA, "-")
	sq := NewSignature(q)
	tab := sq.BranchTable()
	late := path(lateA, "-")
	late.AddVertex(freshLabel())
	late.MustAddEdge(2, 3, "~")
	sl := InternSignature(late)
	if last := sl.branches[len(sl.branches)-1]; int(last) < len(tab.rows) || last&localBit != 0 {
		t.Fatalf("late branch id %d, want a dictionary id past the table's %d rows", last, len(tab.rows))
	}
	requireTableMatchesReference(t, "interned after the table", late, q, sl, sq)
	requireTableMatchesReference(t, "interned after the table, vs stored", late, mol, sl, sm)
}

// TestBranchTableConcurrentFill: workers sharing one fresh table fill
// its rows concurrently, while inserts intern new branches, and every
// bound still equals the reference. Under -race it also checks that no
// half-written row or dictionary entry is ever read.
func TestBranchTableConcurrentFill(t *testing.T) {
	near, far, mol6 := branchPairs(30, 3441)
	pairs := append(append(near, far...), mol6...)
	q := pairs[0][1]
	sq := NewSignature(q)
	stored := make([]*Signature, len(pairs))
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		stored[i] = InternSignature(p[0])
		want[i] = referenceBranchLB(p[0], q)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			g := graph.New("fresh")
			g.AddVertex(freshLabel())
			g.AddVertex("C")
			g.MustAddEdge(0, 1, "-")
			InternSignature(g)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range stored {
				k := (i*7 + w) % len(stored)
				if got := sq.BranchTable().LB(stored[k]); got != want[k] {
					t.Errorf("worker %d pair %d: bound %v, reference %v", w, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBranchBoundAdmissible: on the harness-shaped golden pairs the
// bound never exceeds the GED measure.Compute reports.
func TestBranchBoundAdmissible(t *testing.T) {
	for i, p := range boundGoldenPairs() {
		g, q := p[0], p[1]
		lb := NewSignature(g).BranchLB(NewSignature(q))
		if d := Compute(g, q, Options{}).GED; lb > d {
			t.Fatalf("pair %d: BranchLB %v > reported GED %v\n%s\n%s", i, lb, d, g, q)
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

// TestExceedsDecidesLB: Exceeds(o, limit) is the decision LB(o) >
// limit for every integer limit from 0 to LB+1, and a -1 and an
// infinite one, on seeded pairs of both harness shapes, on isomorphic
// pairs (every branch cancels, the residual is empty) and on queries
// with local ids (a branch relabeled to one the dictionary has never
// seen). Whenever it does not report "above" it returns LB exactly, as
// the ranked scan keeps it as the survivor's GED lower bound; when it
// does, what it returns exceeds limit and is no more than LB.
func TestExceedsDecidesLB(t *testing.T) {
	type pair struct {
		label string
		o, q  *Signature
	}
	var pairs []pair
	near, far, mol6 := branchPairs(100, 3451)
	for name, ps := range map[string][][2]*graph.Graph{"near": near, "far": far, "mol6": mol6} {
		for i, p := range ps {
			o := InternSignature(p[0])
			local := p[1].Clone()
			local.RelabelVertex(i%local.Order(), freshLabel())
			pairs = append(pairs,
				pair{fmt.Sprintf("%s pair %d", name, i), o, NewSignature(p[1])},
				pair{fmt.Sprintf("%s pair %d isomorphic", name, i), o, NewSignature(reversed(p[0]))},
				pair{fmt.Sprintf("%s pair %d local", name, i), o, NewSignature(local)})
		}
	}
	for _, p := range pairs {
		tab := p.q.BranchTable()
		lb := tab.LB(p.o)
		if strings.HasSuffix(p.label, "isomorphic") {
			var buf boundBuf
			if n := len(tab.costs(&buf, p.o)); n != 0 || lb != 0 {
				t.Fatalf("%s: residual side %d and bound %v, want an empty residual and 0", p.label, n, lb)
			}
		}
		if strings.HasSuffix(p.label, "local") && p.q.local == nil {
			t.Fatalf("%s: the relabeled query has no local id", p.label)
		}
		limits := []float64{-1, math.Inf(1)}
		for l := 0.0; l <= lb+1; l++ {
			limits = append(limits, l)
		}
		for _, limit := range limits {
			got, above := tab.Exceeds(p.o, limit)
			switch {
			case above != (lb > limit):
				t.Fatalf("%s limit %v: Exceeds reports above=%v, LB %v", p.label, limit, above, lb)
			case !above && got != lb:
				t.Fatalf("%s limit %v: Exceeds returns %v below the limit, LB %v", p.label, limit, got, lb)
			case above && (got <= limit || got > lb):
				t.Fatalf("%s limit %v: Exceeds proves above with %v, LB %v", p.label, limit, got, lb)
			}
		}
	}
}

// branchPairs builds (database graph, query) pairs in the benchmark
// harness's shapes: order-5 clustered molecules (near: a query one edit
// from a sibling of its own family; far: a member of another family)
// and order-6 molecules against a 2-edit query.
func branchPairs(n int, seed int64) (near, far, mol6 [][2]*graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	member := func(root *graph.Graph) *graph.Graph { return graph.Mutate(root, 2, atoms, bonds, rng) }
	for i := 0; i < n; i++ {
		root, other := graph.Molecule(5, rng), graph.Molecule(5, rng)
		q := graph.Mutate(member(root), 1, atoms, bonds, rng)
		near = append(near, [2]*graph.Graph{member(root), q})
		far = append(far, [2]*graph.Graph{member(other), q})
		g6 := graph.Molecule(6, rng)
		mol6 = append(mol6, [2]*graph.Graph{graph.Molecule(6, rng), graph.Mutate(g6, 2, atoms, bonds, rng)})
	}
	return near, far, mol6
}

// signPairs signs pairs as the scans meet them: the database graph
// interned, the query resolved.
func signPairs(pairs [][2]*graph.Graph) [][2]*Signature {
	out := make([][2]*Signature, len(pairs))
	for i, p := range pairs {
		out[i] = [2]*Signature{InternSignature(p[0]), NewSignature(p[1])}
	}
	return out
}

var sinkBound float64

// TestBranchLBAllocs: a bound over table rows already filled takes its
// matrix and the solver's scratch from a pool and allocates nothing.
func TestBranchLBAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	near, far, mol6 := branchPairs(8, 3411)
	pairs := signPairs(append(append(near, far...), mol6...))
	for _, p := range pairs {
		sinkBound = p[1].BranchTable().LB(p[0])
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		sinkBound = p[1].BranchTable().LB(p[0])
	}); avg != 0 {
		t.Errorf("a warm-table bound allocates %.2f objects per pair, want 0", avg)
	}
}

// BenchmarkBranchLB times tier 1 on its own, per harness shape: warm
// is a bound over rows already filled, the scans' steady state; first
// is a query's first bound, building its table and filling the rows the
// bound reads. residual_n/op is the mean side of the matrix left to the
// solver once twins cancel.
func BenchmarkBranchLB(b *testing.B) {
	near, far, mol6 := branchPairs(64, 3421)
	for _, c := range []struct {
		name  string
		pairs [][2]*Signature
	}{{"near", signPairs(near)}, {"far", signPairs(far)}, {"mol6", signPairs(mol6)}} {
		var buf boundBuf
		side := 0
		for _, p := range c.pairs {
			side += len(p[1].BranchTable().costs(&buf, p[0]))
		}
		residual := float64(side) / float64(len(c.pairs))
		b.Run(c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				sinkBound = p[1].BranchTable().LB(p[0])
			}
			b.ReportMetric(residual, "residual_n/op")
		})
		b.Run(c.name+"/first", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				sinkBound = newBranchTable(p[1]).LB(p[0])
			}
			b.ReportMetric(residual, "residual_n/op")
		})
	}
}

var sinkSig *Signature

// BenchmarkNewSignature times the signature a stored graph gets on
// insert, and so once per graph on WAL replay, on the cold-skyline
// shape: order-6 molecules, every branch already in the dictionary
// after the first pass.
func BenchmarkNewSignature(b *testing.B) {
	gs := dataset.MoleculeDB(400, 6, 6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = InternSignature(gs[i%len(gs)])
	}
}
