// Package dataset ships the paper's worked examples as fixtures plus
// synthetic workload generators for the experiments the paper promises.
//
// The HAL text of the paper carries every number of Tables I–V but not the
// figure drawings, so the graphs of Fig. 1 and Fig. 3 are *reconstructed*
// from the constraints stated in the text (see DESIGN.md §3):
//
//   - Fig1Pair reproduces Examples 2–4 exactly: DistEd = 4 via the stated
//     edit script {edge deletion, edge relabeling, vertex relabeling, edge
//     insertion}, |mcs| = 4, DistMcs = 0.33, DistGu = 0.50.
//   - PaperDB/PaperQuery reproduce Tables II and III exactly: each database
//     graph is a labeled edit of the 6-edge query such that the real GED
//     and MCS engines recompute the published |mcs(gi,q)| and
//     (DistEd, DistMcs, DistGu) rows. Distinct vertex labels pin the
//     optimal correspondences, which is what makes the reconstruction
//     provable rather than approximate.
//   - PaperPairwise decodes Table IV into the pairwise distance matrix over
//     the skyline members {g1,g4,g5,g7}, driving the Section VII
//     reproduction (Tables IV and V).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"skygraph/internal/diversity"
	"skygraph/internal/graph"
	"skygraph/internal/skyline"
)

// Hotels returns Table I of the paper as 2-dimensional skyline points
// (price in euros, distance to the beach in km). Example 1's skyline is
// {H2, H4, H6}.
func Hotels() []skyline.Point {
	return []skyline.Point{
		{ID: "H1", Vec: []float64{4.0, 150}},
		{ID: "H2", Vec: []float64{3.0, 110}},
		{ID: "H3", Vec: []float64{2.5, 240}},
		{ID: "H4", Vec: []float64{2.0, 180}},
		{ID: "H5", Vec: []float64{1.7, 270}},
		{ID: "H6", Vec: []float64{1.0, 195}},
		{ID: "H7", Vec: []float64{1.2, 210}},
	}
}

// HotelsSkyline is Example 1's expected result.
var HotelsSkyline = []string{"H2", "H4", "H6"}

// Fig1Pair returns a reconstruction of the Fig. 1 graphs g1, g2 used by
// Examples 2–4: both have 6 edges, the optimal edit script from g1 to g2 is
// one edge deletion, one edge relabeling, one vertex relabeling and one
// edge insertion (DistEd = 4), and |mcs(g1,g2)| = 4 (the path spanning
// vertices 0–4), so DistMcs = 1 − 4/6 ≈ 0.33 and DistGu = 1 − 4/8 = 0.50.
func Fig1Pair() (g1, g2 *graph.Graph) {
	g1 = graph.New("fig1-g1")
	for _, l := range []string{"A", "B", "C", "D", "E", "G"} {
		g1.AddVertex(l)
	}
	g1.MustAddEdge(0, 1, "x")
	g1.MustAddEdge(1, 2, "x")
	g1.MustAddEdge(2, 3, "x")
	g1.MustAddEdge(3, 4, "x")
	g1.MustAddEdge(4, 5, "x")
	g1.MustAddEdge(0, 2, "x")

	// g2 = g1 after: delete edge {0,2}; relabel edge {4,5} to y; relabel
	// vertex 5 to H; insert edge {1,3}.
	g2 = graph.New("fig1-g2")
	for _, l := range []string{"A", "B", "C", "D", "E", "H"} {
		g2.AddVertex(l)
	}
	g2.MustAddEdge(0, 1, "x")
	g2.MustAddEdge(1, 2, "x")
	g2.MustAddEdge(2, 3, "x")
	g2.MustAddEdge(3, 4, "x")
	g2.MustAddEdge(4, 5, "y")
	g2.MustAddEdge(1, 3, "x")
	return g1, g2
}

// Fig1Script is the paper's Example 2 edit sequence transforming g1 into
// g2 (for the reconstruction above).
func Fig1Script() []graph.EditOp {
	return []graph.EditOp{
		graph.DeleteEdge{U: 0, V: 2},
		graph.RelabelEdgeOp{U: 4, V: 5, Label: "y"},
		graph.RelabelVertexOp{V: 5, Label: "H"},
		graph.InsertEdge{U: 1, V: 3, Label: "x"},
	}
}

// paperQueryBase builds the 7-vertex, 6-edge path query q with distinct
// vertex labels a..g and uniform edge label "s".
func paperQueryBase(name string) *graph.Graph {
	g := graph.New(name)
	for _, l := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		g.AddVertex(l)
	}
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, i+1, "s")
	}
	return g
}

// PaperQuery returns the reconstructed Section VI query graph q (|q| = 6).
func PaperQuery() *graph.Graph { return paperQueryBase("q") }

// PaperDB returns the reconstructed Section VI database D = {g1..g7}. The
// sizes are the paper's (6,7,7,6,8,9,10) and each graph's exact
// |mcs(gi,q)| and GED(gi,q) equal Table II / Table III:
//
//	g1: |g|=6  mcs=4 ged=4    g5: |g|=8  mcs=5 ged=3
//	g2: |g|=7  mcs=4 ged=4    g6: |g|=9  mcs=5 ged=4
//	g3: |g|=7  mcs=4 ged=3    g7: |g|=10 mcs=6 ged=4 (g7 ⊃ q)
//	g4: |g|=6  mcs=3 ged=2
func PaperDB() []*graph.Graph {
	// g1: delete edge {0,1}; insert chord {0,2}; relabel edge {5,6} to t;
	// relabel vertex 6 to z. Common path 1-2-3-4-5 keeps 4 edges.
	g1 := paperQueryBase("g1")
	g1.RemoveEdge(0, 1)
	g1.MustAddEdge(0, 2, "s")
	g1.RelabelEdge(5, 6, "t")
	g1.RelabelVertex(6, "z")

	// g2: relabel edges {0,1} and {5,6} to t; insert chord {0,3}; relabel
	// vertex 0 to y. 4 ops, common run of 4 edges, size 7.
	g2 := paperQueryBase("g2")
	g2.RelabelEdge(0, 1, "t")
	g2.RelabelEdge(5, 6, "t")
	g2.MustAddEdge(0, 3, "s")
	g2.RelabelVertex(0, "y")

	// g3: like g2 without the vertex relabel. 3 ops, mcs 4, size 7.
	g3 := paperQueryBase("g3")
	g3.RelabelEdge(0, 1, "t")
	g3.RelabelEdge(5, 6, "t")
	g3.MustAddEdge(0, 3, "s")

	// g4: relabel edges {1,2} and {5,6} to t. 2 ops; the longest common run
	// is edges {2,3},{3,4},{4,5}: mcs 3, size 6.
	g4 := paperQueryBase("g4")
	g4.RelabelEdge(1, 2, "t")
	g4.RelabelEdge(5, 6, "t")

	// g5: insert chords {0,2} and {1,3}; relabel edge {5,6} to t. 3 ops,
	// mcs 5, size 8.
	g5 := paperQueryBase("g5")
	g5.MustAddEdge(0, 2, "s")
	g5.MustAddEdge(1, 3, "s")
	g5.RelabelEdge(5, 6, "t")

	// g6: insert chords {0,2},{1,3},{2,4}; relabel edge {5,6} to t. 4 ops,
	// mcs 5, size 9.
	g6 := paperQueryBase("g6")
	g6.MustAddEdge(0, 2, "s")
	g6.MustAddEdge(1, 3, "s")
	g6.MustAddEdge(2, 4, "s")
	g6.RelabelEdge(5, 6, "t")

	// g7: insert chords {0,2},{1,3},{2,4},{3,5}. 4 ops, q ⊂ g7, mcs 6,
	// size 10.
	g7 := paperQueryBase("g7")
	g7.MustAddEdge(0, 2, "s")
	g7.MustAddEdge(1, 3, "s")
	g7.MustAddEdge(2, 4, "s")
	g7.MustAddEdge(3, 5, "s")

	return []*graph.Graph{g1, g2, g3, g4, g5, g6, g7}
}

// PaperSizes is the |gi| row of Section VI.
var PaperSizes = []int{6, 7, 7, 6, 8, 9, 10}

// PaperMcs is Table II: |mcs(gi, q)| for i = 1..7.
var PaperMcs = []int{4, 4, 4, 3, 5, 5, 6}

// PaperGED is the DistEd(gi, q) column of Table III.
var PaperGED = []float64{4, 4, 3, 2, 3, 4, 4}

// PaperQuerySize is |q|.
const PaperQuerySize = 6

// PaperTable3 returns Table III as published (values rounded to two
// decimals): the GCS vectors (DistEd, DistMcs, DistGu) of g1..g7 against q.
func PaperTable3() []skyline.Point {
	return []skyline.Point{
		{ID: "g1", Vec: []float64{4, 0.33, 0.50}},
		{ID: "g2", Vec: []float64{4, 0.43, 0.56}},
		{ID: "g3", Vec: []float64{3, 0.43, 0.56}},
		{ID: "g4", Vec: []float64{2, 0.50, 0.67}},
		{ID: "g5", Vec: []float64{3, 0.38, 0.44}},
		{ID: "g6", Vec: []float64{4, 0.44, 0.50}},
		{ID: "g7", Vec: []float64{4, 0.40, 0.40}},
	}
}

// GSSExpected is the graph similarity skyline of Section VI:
// GSS(D,q) = {g1, g4, g5, g7}.
var GSSExpected = []string{"g1", "g4", "g5", "g7"}

// DominatedBy records the domination witnesses stated in Section VI.
var DominatedBy = map[string]string{"g2": "g7", "g3": "g5", "g6": "g1"}

// DiversityWinner is the Section VII result: 𝕊 = S1 = {g1, g4} for k = 2.
var DiversityWinner = []string{"g1", "g4"}

// PaperPairwise decodes Table IV into the pairwise distance matrix over the
// skyline members in order (g1, g4, g5, g7) and dimensions
// (DistNEd, DistMcs, DistGu): the diversity vector of each 2-subset in
// Table IV is exactly the pairwise distance of its two members.
func PaperPairwise() *diversity.Matrix {
	m := diversity.NewMatrix(4, 3)
	set := func(i, j int, v ...float64) {
		for d, x := range v {
			m.Set(d, i, j, x)
		}
	}
	set(0, 1, 0.86, 0.67, 0.80) // S1 = {g1,g4}
	set(0, 2, 0.83, 0.50, 0.60) // S2 = {g1,g5}
	set(0, 3, 0.87, 0.60, 0.67) // S3 = {g1,g7}
	set(1, 2, 0.80, 0.62, 0.73) // S4 = {g4,g5}
	set(1, 3, 0.83, 0.70, 0.77) // S5 = {g4,g7}
	set(2, 3, 0.75, 0.50, 0.61) // S6 = {g5,g7}
	return m
}

// PaperPairwiseIDs names the rows/columns of PaperPairwise.
var PaperPairwiseIDs = []string{"g1", "g4", "g5", "g7"}

// Round2 rounds to two decimals, the precision of the paper's tables.
func Round2(x float64) float64 { return math.Round(x*100) / 100 }

// MoleculeDB generates a deterministic database of n molecule-like graphs
// with orders drawn uniformly from [minV, maxV].
func MoleculeDB(n, minV, maxV int, seed int64) []*graph.Graph {
	if minV < 1 || maxV < minV {
		panic(fmt.Sprintf("dataset: bad order range [%d,%d]", minV, maxV))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		g := graph.Molecule(minV+rng.Intn(maxV-minV+1), rng)
		g.SetName(fmt.Sprintf("m%03d", i))
		out[i] = g
	}
	return out
}

// RewiredClusters generates a deterministic database of clusters * per
// molecule-like graphs: each cluster is a random seed molecule (orders
// drawn from [minV, maxV]) plus per-1 REWIRED variants within 1..ops
// edge relocations of it (graph.Rewire — edges moved, labels and sizes
// untouched). Every graph in a cluster shares the seed's exact label
// histograms, so the histogram edit-distance bound between cluster
// mates is 0 no matter how far apart they really are: only a structural
// bound (the branch bound, or the engines) can separate them.
//
// That isomer regime needs cycles. graph.Molecule adds n*15/100
// ring-closing edges to a spanning tree, so below order 7 every seed is
// a tree; every tree edge is a bridge, and graph.Rewire never moves a
// bridge. At those orders each cluster is per copies of its seed — the
// database holds at most clusters distinct graphs (fewer when two seeds
// are isomorphic). Use orders of 7 and up for distinct cluster mates.
//
// The returned slice is deterministically shuffled so insertion order
// carries no cluster locality. Names are c<cluster>m<member>.
func RewiredClusters(clusters, per, minV, maxV, ops int, seed int64) []*graph.Graph {
	if minV < 1 || maxV < minV {
		panic(fmt.Sprintf("dataset: bad order range [%d,%d]", minV, maxV))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, clusters*per)
	for c := 0; c < clusters; c++ {
		root := graph.Molecule(minV+rng.Intn(maxV-minV+1), rng)
		root.SetName(fmt.Sprintf("c%02dm00", c))
		out = append(out, root)
		for i := 1; i < per; i++ {
			g := graph.Rewire(root, 1+rng.Intn(ops), rng)
			g.SetName(fmt.Sprintf("c%02dm%02d", c, i))
			out = append(out, g)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// NoisyQueries derives query graphs from randomly chosen database members
// by applying noiseOps random edit operations each, the standard way to
// build similarity-search workloads with controlled noise.
func NoisyQueries(db []*graph.Graph, count, noiseOps int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, count)
	for i := range out {
		base := db[rng.Intn(len(db))]
		q := graph.Mutate(base, noiseOps, graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rng)
		q.SetName(fmt.Sprintf("q%03d", i))
		out[i] = q
	}
	return out
}
