// Package skygraph_bench holds the benchmark harness regenerating every
// table of the paper (Tables I–V) plus the extension experiments E9–E12
// (E8, the scaling sweep, lives in cmd/experiments only).
// Each benchmark corresponds to one row of the experiment index in
// DESIGN.md; `go test -bench=. -benchmem` regenerates them all, and
// cmd/experiments prints the paper-vs-measured tables.
package skygraph_bench

import (
	"context"
	"fmt"
	"testing"

	mrand "math/rand"

	"skygraph/internal/dataset"
	"skygraph/internal/diversity"
	"skygraph/internal/gdb"
	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// BenchmarkTable1Hotels regenerates Table I / Example 1: the hotel skyline
// {H2, H4, H6}.
func BenchmarkTable1Hotels(b *testing.B) {
	pts := dataset.Hotels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sky := skyline.Compute(pts)
		if len(sky) != 3 {
			b.Fatalf("skyline size %d", len(sky))
		}
	}
}

// BenchmarkFig1Measures regenerates Examples 2–4: DistEd = 4, |mcs| = 4,
// DistMcs = 0.33, DistGu = 0.50 on the reconstructed Fig. 1 pair.
func BenchmarkFig1Measures(b *testing.B) {
	g1, g2 := dataset.Fig1Pair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := measure.Compute(g1, g2, measure.Options{})
		if s.GED != 4 || s.MCS != 4 {
			b.Fatalf("GED=%v MCS=%v", s.GED, s.MCS)
		}
	}
}

// BenchmarkTable2Mcs regenerates Table II: |mcs(gi,q)| for the seven
// database graphs.
func BenchmarkTable2Mcs(b *testing.B) {
	db := dataset.PaperDB()
	q := dataset.PaperQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range db {
			if got := mcs.Size(g, q); got != dataset.PaperMcs[j] {
				b.Fatalf("mcs(%s,q)=%d", g.Name(), got)
			}
		}
	}
}

// BenchmarkTable3GCS regenerates Table III: the full 7x3 GCS matrix.
func BenchmarkTable3GCS(b *testing.B) {
	db := dataset.PaperDB()
	q := dataset.PaperQuery()
	want := dataset.PaperTable3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range db {
			vec := measure.ComputeGCS(g, q, measure.Options{})
			if dataset.Round2(vec[1]) != want[j].Vec[1] {
				b.Fatalf("row %s: %v", g.Name(), vec)
			}
		}
	}
}

// BenchmarkSkylineGSS regenerates the Section VI result:
// GSS(D,q) = {g1, g4, g5, g7}, end to end through the database engine.
func BenchmarkSkylineGSS(b *testing.B) {
	db := gdb.NewSharded(1)
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		b.Fatal(err)
	}
	q := dataset.PaperQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
		if err != nil || len(res.Skyline) != 4 {
			b.Fatalf("GSS size %d err %v", len(res.Skyline), err)
		}
	}
}

// BenchmarkTable4Diversity regenerates Table IV: diversity vectors of all
// six 2-subsets of the skyline.
func BenchmarkTable4Diversity(b *testing.B) {
	m := dataset.PaperPairwise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, all, err := diversity.Exhaustive(m, 2, 0)
		if err != nil || len(all) != 6 {
			b.Fatalf("candidates %d err %v", len(all), err)
		}
	}
}

// BenchmarkTable5Ranking regenerates Table V: the winner {g1,g4} with
// val = 5.
func BenchmarkTable5Ranking(b *testing.B) {
	m := dataset.PaperPairwise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _, err := diversity.Exhaustive(m, 2, 0)
		if err != nil || best.Val != 5 {
			b.Fatalf("val=%d err=%v", best.Val, err)
		}
	}
}

// BenchmarkRankedScaling measures the best-first ranked scan at two
// collection sizes, 1k and 10k, on the cold-ranked workload's shape:
// n/25 order-5 molecule families of 2-edit mutations, every graph
// distinct up to isomorphism, and a 1-edit query; DistEd top-5 and a
// radius-2 range. evaluated/op counts the candidates scored exactly and
// pruned/op the rest (tier 0, tier 1 and decision runs together).
// Workers is pinned to 1 so the counters are deterministic.
func BenchmarkRankedScaling(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		gs := distinctFamilies(n, 5, 1)
		q := dataset.NoisyQueries(gs, 1, 1, 999)[0]
		db := gdb.NewSharded(1)
		if err := db.InsertAll(gs); err != nil {
			b.Fatal(err)
		}
		opts := gdb.QueryOptions{Workers: 1}
		for _, kind := range []string{"topk", "range"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kind), func(b *testing.B) {
				var last gdb.QueryStats
				for i := 0; i < b.N; i++ {
					var res gdb.TopKResult
					var err error
					if kind == "topk" {
						res, err = db.TopKQuery(context.Background(), q, measure.DistEd{}, 5, opts)
					} else {
						res, err = db.RangeQuery(context.Background(), q, measure.DistEd{}, 2, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
					last = res.Stats
				}
				b.ReportMetric(float64(last.Evaluated), "evaluated/op")
				b.ReportMetric(float64(last.Pruned), "pruned/op")
			})
		}
	}
}

// distinctFamilies returns n pairwise non-isomorphic graphs of the given
// order in families of 25: 2-edit mutations of n/25 random root
// molecules, a mutation kept only when no earlier graph shares its
// canonical form. Names are g00000, g00001, ...
func distinctFamilies(n, order int, seed int64) []*graph.Graph {
	roots := dataset.MoleculeDB(n/25, order, order, seed)
	rng := newGoRand(seed + 1)
	seen := make(map[string]bool, n)
	out := make([]*graph.Graph, 0, n)
	for len(out) < n {
		g := graph.Mutate(roots[len(out)%len(roots)], 2, graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rng)
		if h := graph.QueryHash(g); !seen[h] {
			seen[h] = true
			g.SetName(fmt.Sprintf("g%05d", len(out)))
			out = append(out, g)
		}
	}
	return out
}

// BenchmarkSkylineAlgos is experiment E9: BNL vs SFS vs D&C on identical
// synthetic point sets.
func BenchmarkSkylineAlgos(b *testing.B) {
	pts := syntheticPoints(2000, 3)
	for _, algo := range []struct {
		name string
		a    skyline.Algorithm
	}{{"BNL", skyline.BNL}, {"SFS", skyline.SFS}, {"DC", skyline.DivideAndConquer}} {
		b.Run(algo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.a(pts)
			}
		})
	}
}

// BenchmarkGEDVariants is experiment E10: exact A* vs beam vs bipartite on
// one molecule pair.
func BenchmarkGEDVariants(b *testing.B) {
	pair := dataset.MoleculeDB(2, 7, 8, 5)
	g1, g2 := pair[0], pair[1]
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ged.Exact(g1, g2, ged.Options{})
		}
	})
	b.Run("beam10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ged.Beam(g1, g2, 10, nil)
		}
	})
	b.Run("bipartite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ged.Bipartite(g1, g2, nil)
		}
	})
	b.Run("lowerbound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ged.LowerBound(g1, g2)
		}
	})
}

// BenchmarkTopKRecall is experiment E11: the single-measure top-k baseline
// against the skyline reference.
func BenchmarkTopKRecall(b *testing.B) {
	db := gdb.NewSharded(1)
	if err := db.InsertAll(dataset.MoleculeDB(30, 5, 14, 21)); err != nil {
		b.Fatal(err)
	}
	q := dataset.MoleculeDB(1, 7, 8, 998)[0]
	opts := gdb.QueryOptions{Eval: measure.Options{GEDMaxNodes: 3000, MCSMaxNodes: 3000}}
	sky, err := db.SkylineQuery(context.Background(), q, opts)
	if err != nil {
		b.Fatal(err)
	}
	want := map[string]bool{}
	for _, p := range sky.Skyline {
		want[p.ID] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.TopKQuery(context.Background(), q, measure.DistEd{}, 5, opts)
		if err != nil {
			b.Fatal(err)
		}
		topk.Recall(res.Items, want)
	}
}

// BenchmarkDiversityAlgos is experiment E12: exhaustive vs greedy diversity
// selection on a 12-member skyline.
func BenchmarkDiversityAlgos(b *testing.B) {
	m := diversity.NewMatrix(12, 3)
	rng := newDetRand(31)
	for d := 0; d < 3; d++ {
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j++ {
				m.Set(d, i, j, rng.Float64())
			}
		}
	}
	b.Run("exhaustive-k3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := diversity.Exhaustive(m, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-k3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := diversity.Greedy(m, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMCSEngines compares the McGregor search against the greedy
// heuristic and the clique-based induced variant (ablation from DESIGN.md).
func BenchmarkMCSEngines(b *testing.B) {
	pair := dataset.MoleculeDB(2, 7, 8, 13)
	g1, g2 := pair[0], pair[1]
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mcs.Exact(g1, g2, mcs.Options{})
		}
	})
	b.Run("greedy", func(b *testing.B) {
		rng := newGoRand(1)
		for i := 0; i < b.N; i++ {
			mcs.Greedy(g1, g2, 5, rng)
		}
	})
}

// BenchmarkIsomorphism measures the VF2 matcher on molecule pairs.
func BenchmarkIsomorphism(b *testing.B) {
	g := dataset.MoleculeDB(1, 12, 12, 3)[0]
	h := g.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !graph.Isomorphic(g, h) {
			b.Fatal("clone not isomorphic")
		}
	}
}

func syntheticPoints(n, d int) []skyline.Point {
	rng := newDetRand(17)
	pts := make([]skyline.Point, n)
	for i := range pts {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = skyline.Point{ID: fmt.Sprintf("p%d", i), Vec: v}
	}
	return pts
}

type detRand struct{ s uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: seed*2685821657736338717 + 1} }

func (r *detRand) Float64() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / float64(1<<53)
}

// newGoRand adapts math/rand for the MCS greedy benchmark.
func newGoRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
