package measure

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// The bound golden pins the signature kernels' output — BoundPair in
// both orientations, HistLB in both, and PairStatsFrom — on the graph
// shapes the benchmark harness serves: order-5 clustered families with
// 1-edit queries, order-6 molecules with 2-edit queries, plus label
// alphabets with repeated and empty-string labels and degenerate
// orders. The file was generated by the map-histogram signatures the
// sorted-slice histograms replaced.
//
//	go test ./internal/measure -run TestBoundGolden -update-golden
//
// rewrites the file from whatever kernels are checked out.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/bound_golden.json from the current kernels")

const boundGoldenPath = "testdata/bound_golden.json"

// HistLB returns the label-histogram lower bound on the uniform-cost
// edit distance between the signatures' graphs — the same bound as
// ged.LowerBound, served from the precomputed histograms. The scans
// take it as the GEDLo of RankInterval and BoundPair, which walk the
// same two merges themselves; this standalone form is the reference
// the bound golden and the branch-bound tests check against.
func (s *Signature) HistLB(o *Signature) float64 {
	return float64(s.VHist.distance(o.VHist) + s.EHist.distance(o.EHist))
}

// boundGoldenPairs returns the seeded (database graph, query) grid.
func boundGoldenPairs() [][2]*graph.Graph {
	var out [][2]*graph.Graph
	roots := dataset.MoleculeDB(8, 5, 5, 2701)
	family := dataset.NoisyQueries(roots, 200, 2, 2703)
	for _, q := range dataset.NoisyQueries(family, 5, 1, 2702) {
		for _, g := range family {
			out = append(out, [2]*graph.Graph{g, q})
		}
	}
	mols := dataset.MoleculeDB(100, 6, 6, 2711)
	for _, q := range dataset.NoisyQueries(mols, 10, 2, 2712) {
		for _, g := range mols {
			out = append(out, [2]*graph.Graph{g, q})
		}
	}
	rng := rand.New(rand.NewSource(2721))
	for i := 0; i < 40; i++ {
		out = append(out, [2]*graph.Graph{
			graph.ErdosRenyi(rng.Intn(7), 0.5, []string{"", "A", "A", "B"}, []string{"", "x", "y"}, rng),
			graph.ErdosRenyi(rng.Intn(7), 0.5, []string{"", "A", "C"}, []string{"", "x"}, rng),
		})
	}
	empty, one := graph.New("e"), graph.New("v")
	one.AddVertex("C")
	mol := graph.Molecule(5, rng)
	out = append(out,
		[2]*graph.Graph{empty, empty},
		[2]*graph.Graph{empty, mol},
		[2]*graph.Graph{mol, empty},
		[2]*graph.Graph{one, mol},
		[2]*graph.Graph{one, one},
	)
	return out
}

// boundGoldenRecord renders one pair: a digest of both graphs (a
// drifted generator fails loudly instead of as a wall of mismatches),
// then the kernel outputs. i seeds the engine results PairStatsFrom is
// handed.
func boundGoldenRecord(i int, g, q *graph.Graph) string {
	sum := sha256.Sum256([]byte(g.String() + "|" + q.String()))
	sg, sq := NewSignature(g), NewSignature(q)
	r := EngineResults{GED: float64(i%9) + 0.5, MCS: i % 4}
	return fmt.Sprintf("%s %v %v %v %v %v",
		hex.EncodeToString(sum[:6]),
		BoundPair(sg, sq), BoundPair(sq, sg),
		sg.HistLB(sq), sq.HistLB(sg),
		PairStatsFrom(sg, sq, r))
}

func TestBoundGolden(t *testing.T) {
	pairs := boundGoldenPairs()
	if len(pairs) < 2000 {
		t.Fatalf("golden grid has %d pairs, want >= 2000", len(pairs))
	}
	got := make([]string, len(pairs))
	for i, p := range pairs {
		got[i] = boundGoldenRecord(i, p[0], p[1])
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(boundGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(boundGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d pairs, generator makes %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pair %d (%s | %s):\n got %s\nwant %s", i, pairs[i][0], pairs[i][1], got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
