package ged

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"skygraph/internal/graph"
)

// The kernel golden pins every observable of Exact and Bipartite —
// distance, exactness, limit verdict, lower bound, expansion count and
// the mapping itself — on a seeded grid of pairs, caps and limits. The
// file was generated by the map-and-string A* this kernel replaced, so
// passing it means the search expands the same nodes in the same order,
// not merely that it finds the same optimum.
//
//	go test ./internal/ged -run TestKernelGolden -update-golden
//
// rewrites the file from whatever kernel is checked out.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json from the current kernel")

const goldenPath = "testdata/kernel_golden.json"

type goldenPair struct {
	// G1, G2 are the graphs' String() renderings: a drifted generator
	// fails loudly here instead of as thousands of result mismatches.
	G1, G2 string
	// Bipartite holds one "distance mapping" record.
	Bipartite []string
	// Exact holds one "distance exact above lowerbound nodes mapping"
	// record per goldenRuns entry.
	Exact []string
}

var goldenMaxNodes = []int64{0, 5, 50}

// goldenLimits returns the limit grid for one pair: none, just below and
// at the histogram bound, at the true distance, and one above it.
func goldenLimits(lb, dist float64) []*float64 {
	vals := []float64{lb - 1, lb, dist, dist + 1}
	out := []*float64{nil}
	for i := range vals {
		out = append(out, &vals[i])
	}
	return out
}

// goldenGraphs returns the seeded pair set: random molecules of order
// 3-8, the benchmark harness's family shape (order-5 roots, 2-edit
// members, 1-2-edit queries), label-disjoint pairs, degenerate orders,
// and alphabets with repeated and empty-string labels.
func goldenGraphs() [][2]*graph.Graph {
	rng := rand.New(rand.NewSource(20231))
	var out [][2]*graph.Graph
	// Orders 7-8 are kept to a handful: uncapped searches on them are
	// the slowest of the grid.
	for i := 0; i < 120; i++ {
		hi := 4
		if i%10 == 0 {
			hi = 6
		}
		out = append(out, [2]*graph.Graph{
			graph.Molecule(3+rng.Intn(hi), rng),
			graph.Molecule(3+rng.Intn(hi), rng),
		})
	}
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	for i := 0; i < 100; i++ {
		member := graph.Mutate(graph.Molecule(5, rng), 2, atoms, bonds, rng)
		out = append(out, [2]*graph.Graph{member, graph.Mutate(member, 1+rng.Intn(2), atoms, bonds, rng)})
	}
	for i := 0; i < 40; i++ {
		out = append(out, [2]*graph.Graph{
			graph.ErdosRenyi(1+rng.Intn(5), 0.5, []string{"A", "B"}, []string{"x", "y"}, rng),
			graph.ErdosRenyi(1+rng.Intn(5), 0.5, []string{"C", "D"}, []string{"z", "w"}, rng),
		})
	}
	for i := 0; i < 40; i++ {
		out = append(out, [2]*graph.Graph{
			graph.ErdosRenyi(1+rng.Intn(6), 0.5, []string{"", "A", "A"}, []string{"", "x"}, rng),
			graph.ErdosRenyi(1+rng.Intn(6), 0.5, []string{"", "A", "A"}, []string{"", "x"}, rng),
		})
	}
	empty := func() *graph.Graph { return graph.New("e") }
	one := func(l string) *graph.Graph { g := graph.New("v"); g.AddVertex(l); return g }
	out = append(out,
		[2]*graph.Graph{empty(), empty()},
		[2]*graph.Graph{empty(), one("A")},
		[2]*graph.Graph{one("A"), empty()},
		[2]*graph.Graph{one("A"), one("A")},
		[2]*graph.Graph{one("A"), one("B")},
		[2]*graph.Graph{one(""), one("A")},
		[2]*graph.Graph{empty(), graph.Molecule(4, rng)},
		[2]*graph.Graph{graph.Molecule(4, rng), empty()},
		[2]*graph.Graph{one("C"), graph.Molecule(5, rng)},
		[2]*graph.Graph{graph.Molecule(5, rng), one("C")},
		[2]*graph.Graph{graph.Complete(4, "A", "x"), graph.Cycle(4, "A", "x")},
		[2]*graph.Graph{graph.Star(5, "", ""), graph.Path(5, "", "")},
	)
	return out
}

func fmtMapping(m []int) string {
	if m == nil {
		return "~"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte(']')
	return b.String()
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtExact(r Result) string {
	return fmt.Sprintf("%s %t %t %s %d %s", fmtFloat(r.Distance), r.Exact, r.AboveLimit, fmtFloat(r.LowerBound), r.Nodes, fmtMapping(r.Mapping))
}

// goldenRun is one cell of the grid, resolved for a concrete pair.
type goldenRun struct {
	label string
	opts  Options
}

// goldenRuns lists the Exact grid for one pair in file order.
func goldenRuns(g1, g2 *graph.Graph) []goldenRun {
	lb, dist := LowerBound(g1, g2), Distance(g1, g2)
	var runs []goldenRun
	for _, cap := range goldenMaxNodes {
		for _, limit := range goldenLimits(lb, dist) {
			label := fmt.Sprintf("cap=%d/limit=nil", cap)
			if limit != nil {
				label = fmt.Sprintf("cap=%d/limit=%v", cap, *limit)
			}
			runs = append(runs, goldenRun{label, Options{MaxNodes: cap, Limit: limit}})
		}
	}
	return runs
}

// goldenBipartite renders Bipartite as the file's one-record list.
func goldenBipartite(g1, g2 *graph.Graph) []string {
	r := Bipartite(g1, g2)
	return []string{fmtFloat(r.Distance) + " " + fmtMapping(r.Mapping)}
}

func computeGolden(g1, g2 *graph.Graph) goldenPair {
	p := goldenPair{G1: g1.String(), G2: g2.String(), Bipartite: goldenBipartite(g1, g2)}
	for _, run := range goldenRuns(g1, g2) {
		p.Exact = append(p.Exact, fmtExact(Exact(g1, g2, run.opts)))
	}
	return p
}

func loadGolden(t *testing.T) []goldenPair {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []goldenPair
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	return want
}

func TestKernelGolden(t *testing.T) {
	pairs := goldenGraphs()
	if len(pairs) < 300 {
		t.Fatalf("golden grid has %d pairs, want >= 300", len(pairs))
	}
	if *updateGolden {
		got := make([]goldenPair, len(pairs))
		for i, p := range pairs {
			got[i] = computeGolden(p[0], p[1])
			for _, rec := range got[i].Exact {
				if strings.Contains(rec, "Inf") || strings.Contains(rec, "NaN") {
					t.Fatalf("pair %d: non-finite record %q", i, rec)
				}
			}
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadGolden(t)
	if len(want) != len(pairs) {
		t.Fatalf("golden has %d pairs, generator makes %d", len(want), len(pairs))
	}
	for i, p := range pairs {
		checkGoldenPair(t, i, p[0], p[1], want[i], 1)
	}
}

// checkGoldenPair compares every stride-th run of one pair against its
// golden records (stride 1 = all), reporting through t.Errorf so it is
// safe off the test goroutine.
func checkGoldenPair(t *testing.T, i int, g1, g2 *graph.Graph, want goldenPair, stride int) {
	if g1.String() != want.G1 || g2.String() != want.G2 {
		t.Errorf("pair %d: generator drifted from the golden file:\n got %s | %s\nwant %s | %s", i, g1, g2, want.G1, want.G2)
		return
	}
	if got := goldenBipartite(g1, g2); !slices.Equal(got, want.Bipartite) {
		t.Errorf("pair %d (%s | %s) bipartite: got %q, want %q", i, g1, g2, got, want.Bipartite)
	}
	runs := goldenRuns(g1, g2)
	if len(runs) != len(want.Exact) {
		t.Errorf("pair %d: %d runs, golden has %d", i, len(runs), len(want.Exact))
		return
	}
	for j := i % stride; j < len(runs); j += stride {
		if rec := fmtExact(Exact(g1, g2, runs[j].opts)); rec != want.Exact[j] {
			t.Errorf("pair %d (%s | %s) %s:\n got %s\nwant %s", i, g1, g2, runs[j].label, rec, want.Exact[j])
		}
	}
}

// TestKernelGoldenConcurrent replays a slice of the golden from eight
// goroutines at once: the searches share pooled scratch, so a buffer
// handed back while still referenced shows up as a wrong record here
// and as a report under -race.
func TestKernelGoldenConcurrent(t *testing.T) {
	pairs := goldenGraphs()
	want := loadGolden(t)
	if len(want) != len(pairs) {
		t.Fatalf("golden has %d pairs, generator makes %d", len(want), len(pairs))
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each pair is replayed by two workers, a ninth of its
			// runs each: enough to interleave large and tiny searches
			// on the pool without rerunning the whole grid eightfold.
			for i := w % (workers / 2); i < len(pairs); i += workers / 2 {
				checkGoldenPair(t, i, pairs[i][0], pairs[i][1], want[i], 9)
			}
		}(w)
	}
	wg.Wait()
}
