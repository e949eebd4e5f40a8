package mcs

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

// The kernel golden pins every observable of Exact — the returned pairs
// in order, the edge count, Exhausted, ProvedBelowNeed and the expansion
// count — on a seeded grid of pairs, argument orders and decision
// thresholds, plus the GreedyLB and seeded Greedy mappings. The
// file was generated by the map-and-string searcher this kernel
// replaced, so passing it means the search visits the same tree in the
// same order, not merely that it finds the same maximum.
//
//	go test ./internal/mcs -run TestKernelGolden -update-golden
//
// rewrites the file from whatever kernel is checked out.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json from the current kernel")

const goldenPath = "testdata/kernel_golden.json"

type goldenPair struct {
	// G1, G2 are the graphs' String() renderings: a drifted generator
	// fails loudly here instead of as thousands of result mismatches.
	G1, G2 string
	// Exact holds one "pairs edges exhausted proved nodes" record per
	// goldenRuns entry.
	Exact []string
	// Greedy holds GreedyLB(g1, g2), GreedyLB(g2, g1) and a seeded
	// Greedy(g1, g2) as "pairs edges".
	Greedy []string
}

// goldenNeeds is the decision grid for a pair whose |mcs| is truth:
// plain maximization, the weakest decision, and the threshold at and
// just above the maximum.
func goldenNeeds(truth int) []int { return []int{0, 1, truth, truth + 1} }

// goldenGraphs returns the seeded pair set: random molecules of order
// 4-8, the benchmark harness's shapes (order-6 skyline queries two edits
// from a database molecule, order-5 family members and their queries),
// label-disjoint pairs, alphabets with repeated and empty-string labels,
// and degenerate orders.
func goldenGraphs() [][2]*graph.Graph {
	rng := rand.New(rand.NewSource(20281))
	var out [][2]*graph.Graph
	for i := 0; i < 100; i++ {
		out = append(out, [2]*graph.Graph{
			graph.Molecule(4+rng.Intn(5), rng),
			graph.Molecule(4+rng.Intn(5), rng),
		})
	}
	atoms, bonds := graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds
	for i := 0; i < 40; i++ {
		db, other := graph.Molecule(6, rng), graph.Molecule(6, rng)
		q := graph.Mutate(db, 2, atoms, bonds, rng)
		out = append(out, [2]*graph.Graph{db, q}, [2]*graph.Graph{other, q})
	}
	for i := 0; i < 40; i++ {
		root, other := graph.Molecule(5, rng), graph.Molecule(5, rng)
		member := graph.Mutate(root, 2, atoms, bonds, rng)
		q := graph.Mutate(member, 1, atoms, bonds, rng)
		out = append(out, [2]*graph.Graph{member, q}, [2]*graph.Graph{graph.Mutate(other, 2, atoms, bonds, rng), q})
	}
	for i := 0; i < 20; i++ {
		out = append(out, [2]*graph.Graph{
			graph.ErdosRenyi(1+rng.Intn(5), 0.5, []string{"A", "B"}, []string{"x", "y"}, rng),
			graph.ErdosRenyi(1+rng.Intn(5), 0.5, []string{"C", "D"}, []string{"x", "y"}, rng),
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
		[2]*graph.Graph{one("A"), one("A")},
		[2]*graph.Graph{one("A"), one("B")},
		[2]*graph.Graph{one(""), one("")},
		[2]*graph.Graph{empty(), graph.Molecule(4, rng)},
		[2]*graph.Graph{one("C"), graph.Molecule(5, rng)},
		[2]*graph.Graph{graph.Complete(4, "A", "x"), graph.Cycle(4, "A", "x")},
		[2]*graph.Graph{graph.Complete(5, "A", "x"), graph.Complete(5, "A", "x")},
		[2]*graph.Graph{graph.Star(5, "", ""), graph.Path(5, "", "")},
		[2]*graph.Graph{graph.Path(4, "A", "x"), graph.Cycle(6, "A", "x")},
	)
	return out
}

// fmtMapping renders a mapping as "[u-v,...] edges", with "~" for nil
// pairs: Exact distinguishes nil (an empty graph) from empty (no
// label-compatible seed).
func fmtMapping(m Mapping) string {
	if m.Pairs == nil {
		return "~ " + strconv.Itoa(m.Edges)
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range m.Pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", p.U, p.V)
	}
	b.WriteString("] ")
	b.WriteString(strconv.Itoa(m.Edges))
	return b.String()
}

func fmtExact(r Result) string {
	return fmt.Sprintf("%s %t %t %d", fmtMapping(r.Mapping), r.Exhausted, r.ProvedBelowNeed, r.Nodes)
}

// goldenRun is one cell of the grid, resolved for a concrete pair.
type goldenRun struct {
	label  string
	g1, g2 *graph.Graph
	opts   Options
}

// goldenRuns lists the Exact grid for one pair in file order: both
// argument orders (the second crosses the swap when the orders differ),
// every threshold.
func goldenRuns(g1, g2 *graph.Graph) []goldenRun {
	truth := Exact(g1, g2, Options{}).Mapping.Edges
	var runs []goldenRun
	for _, side := range [][2]*graph.Graph{{g1, g2}, {g2, g1}} {
		for _, need := range goldenNeeds(truth) {
			label := fmt.Sprintf("order=%d,%d/need=%d", side[0].Order(), side[1].Order(), need)
			runs = append(runs, goldenRun{label, side[0], side[1], Options{Need: need}})
		}
	}
	return runs
}

// goldenGreedy renders the two greedy engines; i seeds Greedy's draws.
func goldenGreedy(i int, g1, g2 *graph.Graph) []string {
	return []string{
		fmtMapping(GreedyLB(g1, g2)),
		fmtMapping(GreedyLB(g2, g1)),
		fmtMapping(Greedy(g1, g2, 3, rand.New(rand.NewSource(int64(i))))),
	}
}

func computeGolden(i int, g1, g2 *graph.Graph) goldenPair {
	p := goldenPair{G1: g1.String(), G2: g2.String(), Greedy: goldenGreedy(i, g1, g2)}
	for _, run := range goldenRuns(g1, g2) {
		p.Exact = append(p.Exact, fmtExact(Exact(run.g1, run.g2, run.opts)))
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
			got[i] = computeGolden(i, p[0], p[1])
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
	if got := goldenGreedy(i, g1, g2); !slices.Equal(got, want.Greedy) {
		t.Errorf("pair %d (%s | %s) greedy: got %q, want %q", i, g1, g2, got, want.Greedy)
	}
	runs := goldenRuns(g1, g2)
	if len(runs) != len(want.Exact) {
		t.Errorf("pair %d: %d runs, golden has %d", i, len(runs), len(want.Exact))
		return
	}
	for j := i % stride; j < len(runs); j += stride {
		if rec := fmtExact(Exact(runs[j].g1, runs[j].g2, runs[j].opts)); rec != want.Exact[j] {
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
			for i := w % (workers / 2); i < len(pairs); i += workers / 2 {
				checkGoldenPair(t, i, pairs[i][0], pairs[i][1], want[i], 5)
			}
		}(w)
	}
	wg.Wait()
}
