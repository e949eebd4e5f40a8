// Command experiments regenerates every table of the paper plus the
// extension experiments E8–E12 (the evaluation the paper promises as future
// work), printing paper-vs-measured values. See DESIGN.md for the
// experiment index.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E4    # run one experiment
//	experiments -list      # list experiments
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

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

type experiment struct {
	id, title string
	run       func()
}

func main() {
	runID := flag.String("run", "", "run a single experiment (e.g. E5)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	exps := []experiment{
		{"E1", "Table I — hotel skyline (Example 1)", e1},
		{"E2", "Fig. 1 — measures on the reconstructed pair (Examples 2-4)", e2},
		{"E3", "Table II — |mcs(gi,q)| on the reconstructed database", e3},
		{"E4", "Table III — GCS vectors (DistEd, DistMcs, DistGu)", e4},
		{"E5", "Section VI — graph similarity skyline GSS(D,q)", e5},
		{"E6", "Table IV — diversity of all 2-subsets of GSS", e6},
		{"E7", "Table V — ranks, val(S) and the diversity winner", e7},
		{"E8", "Skyline size vs database size and dimension (promised eval)", e8},
		{"E9", "Skyline algorithms: BNL vs SFS vs D&C (promised eval)", e9},
		{"E10", "GED engines: exact vs beam vs bipartite (promised eval)", e10},
		{"E11", "Top-k single-measure recall of the skyline (promised eval)", e11},
		{"E12", "Diversity: exhaustive vs greedy (promised eval)", e12},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran := false
	for _, e := range exps {
		if *runID != "" && !strings.EqualFold(*runID, e.id) {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.title)
		e.run()
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *runID)
		os.Exit(1)
	}
}

func e1() {
	sky := skyline.Compute(dataset.Hotels())
	var got []string
	for _, p := range sky {
		got = append(got, p.ID)
	}
	fmt.Printf("paper:    skyline = {H2, H4, H6}\n")
	fmt.Printf("measured: skyline = {%s}\n", strings.Join(got, ", "))
}

func e2() {
	g1, g2 := dataset.Fig1Pair()
	s := measure.Compute(g1, g2, measure.Options{})
	fmt.Printf("%-10s %8s %8s\n", "measure", "paper", "measured")
	fmt.Printf("%-10s %8v %8v\n", "DistEd", 4, s.GED)
	fmt.Printf("%-10s %8v %8v\n", "|mcs|", 4, s.MCS)
	fmt.Printf("%-10s %8v %8v\n", "DistMcs", 0.33, dataset.Round2(measure.DistMcs.FromStats(&s)))
	fmt.Printf("%-10s %8v %8v\n", "DistGu", 0.50, dataset.Round2(measure.DistGu.FromStats(&s)))
}

func e3() {
	db := dataset.PaperDB()
	q := dataset.PaperQuery()
	fmt.Printf("%-6s %8s %10s\n", "pair", "paper", "measured")
	for i, g := range db {
		fmt.Printf("(%s,q) %8d %10d\n", g.Name(), dataset.PaperMcs[i], mcs.Size(g, q))
	}
}

func e4() {
	db := dataset.PaperDB()
	q := dataset.PaperQuery()
	want := dataset.PaperTable3()
	fmt.Printf("%-6s | %-18s | %-18s\n", "", "paper (Ed,Mcs,Gu)", "measured")
	for i, g := range db {
		vec := measure.ComputeGCS(g, q, measure.Options{})
		fmt.Printf("(%s,q) | %4.0f  %5.2f  %5.2f | %4.0f  %5.2f  %5.2f\n",
			g.Name(),
			want[i].Vec[0], want[i].Vec[1], want[i].Vec[2],
			vec[0], dataset.Round2(vec[1]), dataset.Round2(vec[2]))
	}
}

func paperSkyline() (gdb.SkylineResult, *gdb.DB) {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		panic(err)
	}
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{})
	if err != nil {
		panic(err)
	}
	return res, db
}

func e5() {
	res, _ := paperSkyline()
	var got []string
	for _, p := range res.Skyline {
		got = append(got, p.ID)
	}
	fmt.Printf("paper:    GSS(D,q) = {g1, g4, g5, g7}\n")
	fmt.Printf("measured: GSS(D,q) = {%s}\n", strings.Join(got, ", "))
	fmt.Printf("paper domination witnesses: g7 ≻ g2, g5 ≻ g3, g1 ≻ g6\n")
	vec := map[string][]float64{}
	for _, p := range res.All {
		vec[p.ID] = p.Vec
	}
	for _, w := range []struct{ winner, loser string }{{"g7", "g2"}, {"g5", "g3"}, {"g1", "g6"}} {
		fmt.Printf("measured: %s ≻ %s = %v\n", w.winner, w.loser, skyline.Dominates(vec[w.winner], vec[w.loser]))
	}
}

func e6() {
	m := dataset.PaperPairwise()
	_, all, err := diversity.Exhaustive(m, 2, 0)
	if err != nil {
		panic(err)
	}
	// Present in Table IV's subset order (S1..S6), not val order.
	sort.Slice(all, func(a, b int) bool {
		return lexLess(all[a].Members, all[b].Members)
	})
	fmt.Printf("(pairwise matrix decoded from Table IV; dims: DistNEd, DistMcs, DistGu)\n")
	fmt.Printf("%-14s %7s %7s %7s\n", "subset", "v1", "v2", "v3")
	for _, c := range all {
		fmt.Printf("{%s, %s}%6.2f %7.2f %7.2f\n",
			dataset.PaperPairwiseIDs[c.Members[0]], dataset.PaperPairwiseIDs[c.Members[1]],
			c.Div[0], c.Div[1], c.Div[2])
	}
}

func e7() {
	m := dataset.PaperPairwise()
	best, all, err := diversity.Exhaustive(m, 2, 0)
	if err != nil {
		panic(err)
	}
	sort.Slice(all, func(a, b int) bool {
		return lexLess(all[a].Members, all[b].Members)
	})
	fmt.Printf("%-14s %4s %4s %4s %6s\n", "subset", "r1", "r2", "r3", "val")
	for _, c := range all {
		fmt.Printf("{%s, %s}%5d %4d %4d %6d\n",
			dataset.PaperPairwiseIDs[c.Members[0]], dataset.PaperPairwiseIDs[c.Members[1]],
			c.Ranks[0], c.Ranks[1], c.Ranks[2], c.Val)
	}
	fmt.Printf("paper:    winner 𝕊 = {g1, g4} with val = 5\n")
	fmt.Printf("measured: winner 𝕊 = {%s, %s} with val = %d\n",
		dataset.PaperPairwiseIDs[best.Members[0]], dataset.PaperPairwiseIDs[best.Members[1]], best.Val)
}

func e8() {
	fmt.Printf("(synthetic molecule database; measured only — the paper reports no numbers)\n")
	fmt.Printf("%6s %6s %14s %14s\n", "n", "dims", "skyline size", "fraction")
	for _, n := range []int{20, 50, 100} {
		db := gdb.New()
		if err := db.InsertAll(dataset.MoleculeDB(n, 5, 14, 1)); err != nil {
			panic(err)
		}
		// Independent query (disjoint seed): no database member is a near-
		// copy, so genuine trade-offs between the measures appear.
		q := dataset.MoleculeDB(1, 7, 8, 999)[0]
		for _, basis := range [][]measure.Measure{
			{measure.DistEd, measure.DistMcs},
			{measure.DistEd, measure.DistMcs, measure.DistGu},
			measure.Extended(), // d=6: + label and degree feature distances
		} {
			res, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{Basis: basis})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%6d %6d %14d %13.2f%%\n", n, len(basis), len(res.Skyline),
				100*float64(len(res.Skyline))/float64(n))
		}
	}
}

func e9() {
	// One unpruned answer's table: every algorithm reads the same rows.
	res, _ := paperSkyline()
	algos := []struct {
		name string
		a    skyline.Algorithm
	}{{"BNL", skyline.BNL}, {"SFS", skyline.SFS}, {"D&C", skyline.DivideAndConquer}}
	// Pre-evaluate vectors once on a synthetic set for a fair algorithm-only
	// comparison.
	pts := syntheticPoints(5000, 3)
	fmt.Printf("%-5s %10s %14s  (5000 synthetic 3-d points)\n", "algo", "skyline", "time")
	for _, al := range algos {
		start := time.Now()
		sky := al.a(pts)
		fmt.Printf("%-5s %10d %14v\n", al.name, len(sky), time.Since(start))
	}
	for _, al := range algos {
		fmt.Printf("paper DB via %-4s -> %d members (want 4)\n", al.name, len(al.a(res.All)))
	}
}

func e10() {
	rngDB := dataset.MoleculeDB(12, 7, 9, 5)
	pairs := 0
	var exactT, beamT, bipT time.Duration
	var beamErr, bipErr float64
	for i := 0; i < len(rngDB); i += 2 {
		g1, g2 := rngDB[i], rngDB[i+1]
		t0 := time.Now()
		ex := ged.Exact(g1, g2, ged.Options{})
		exactT += time.Since(t0)
		t0 = time.Now()
		bm := ged.Beam(g1, g2, 10)
		beamT += time.Since(t0)
		t0 = time.Now()
		bp := ged.Bipartite(g1, g2)
		bipT += time.Since(t0)
		beamErr += bm.Distance - ex.Distance
		bipErr += bp.Distance - ex.Distance
		pairs++
	}
	fmt.Printf("%-10s %14s %18s\n", "engine", "avg time", "avg overestimate")
	fmt.Printf("%-10s %14v %18.2f\n", "exact", exactT/time.Duration(pairs), 0.0)
	fmt.Printf("%-10s %14v %18.2f\n", "beam(10)", beamT/time.Duration(pairs), beamErr/float64(pairs))
	fmt.Printf("%-10s %14v %18.2f\n", "bipartite", bipT/time.Duration(pairs), bipErr/float64(pairs))
}

func e11() {
	db := gdb.New()
	n := 60
	if err := db.InsertAll(dataset.MoleculeDB(n, 5, 14, 21)); err != nil {
		panic(err)
	}
	// Independent query so the skyline is non-trivial (see E8).
	q := dataset.MoleculeDB(1, 7, 8, 998)[0]
	sky, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		panic(err)
	}
	want := map[string]bool{}
	for _, p := range sky.Skyline {
		want[p.ID] = true
	}
	fmt.Printf("skyline size: %d of %d\n", len(want), n)
	fmt.Printf("%-9s %8s %8s %8s\n", "measure", "k=|GSS|", "k=5", "k=10")
	for _, m := range []measure.Measure{measure.DistEd, measure.DistMcs, measure.DistGu} {
		var cells []string
		for _, k := range []int{len(want), 5, 10} {
			res, err := db.TopKQuery(context.Background(), q, m, k, gdb.QueryOptions{})
			if err != nil {
				panic(err)
			}
			cells = append(cells, fmt.Sprintf("%8.2f", topk.Recall(res.Items, want)))
		}
		fmt.Printf("%-9s %s\n", m.Name(), strings.Join(cells, " "))
	}
	fmt.Printf("(recall < 1 shows a single measure misses skyline graphs — the paper's g3/g5 argument)\n")
}

func e12() {
	pts := 12
	m := diversity.NewMatrix(pts, 3)
	rng := newDetRand(31)
	for d := 0; d < 3; d++ {
		for i := 0; i < pts; i++ {
			for j := i + 1; j < pts; j++ {
				m.Set(d, i, j, rng.Float64())
			}
		}
	}
	for _, k := range []int{2, 3, 4} {
		t0 := time.Now()
		best, all, err := diversity.Exhaustive(m, k, 0)
		exT := time.Since(t0)
		if err != nil {
			panic(err)
		}
		t0 = time.Now()
		sel, err := diversity.Greedy(m, k)
		grT := time.Since(t0)
		if err != nil {
			panic(err)
		}
		gv := valOf(all, sel)
		fmt.Printf("k=%d: exhaustive val=%-4d (%d candidates, %v)   greedy val=%-4d (%v)\n",
			k, best.Val, len(all), exT, gv, grT)
	}
}

func valOf(all []diversity.Candidate, sel []int) int {
	for _, c := range all {
		if len(c.Members) == len(sel) {
			same := true
			for i := range sel {
				if c.Members[i] != sel[i] {
					same = false
					break
				}
			}
			if same {
				return c.Val
			}
		}
	}
	return -1
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

// newDetRand returns a deterministic pseudo-random source (xorshift) so the
// harness output is stable without importing math/rand here.
type detRand struct{ s uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: seed*2685821657736338717 + 1} }

func (r *detRand) Float64() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / float64(1<<53)
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

var _ = graph.New // keep the import for future extensions
