package gdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// TestClassClaimOrderMatchesSort: the class heap hands out the
// candidates in exactly the order of a sort of per-candidate tier-0
// columns — measure.RankInterval for every candidate, ascending by
// (lo, hi, insert sequence) — and admits exactly the candidates whose
// lo fits the floor seeded from every candidate's hi. The store is
// clustered like the cold-ranked collection, so most classes hold
// several histogram twins. DistEd and DistNEd bound per class; DistMcs
// reads more than the histograms and runs the same code with one class
// per candidate. Six copies of one small graph make the floor depend
// on counting each class once per member. The check repeats after deleting class members,
// emptying whole classes, and re-inserting them, some out of sequence
// order, and on a snapshot taken before those deletes, whose class
// column must stay as it was handed.
func TestClassClaimOrderMatchesSort(t *testing.T) {
	gs := dataset.NoisyQueries(dataset.MoleculeDB(8, 5, 5, 4701), 200, 2, 4703)
	for i, g := range gs {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	// Six copies of one small graph make a class whose hi is the
	// smallest: the top-5 floor is its hi only when the class counts
	// once per member.
	small := graph.Molecule(3, rand.New(rand.NewSource(4704)))
	for i := range 6 {
		g := small.Clone()
		g.SetName(fmt.Sprintf("s%d", i))
		gs = append(gs, g)
	}
	sh := New()
	if err := sh.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	qs := dataset.NoisyQueries(gs, 3, 1, 4702)
	check := func(label string, sn snap) {
		t.Helper()
		size := make([]int, sn.classes)
		for _, c := range sn.cls {
			size[c]++
		}
		twins := 0
		for _, c := range sn.cls {
			if size[c] > 1 {
				twins++
			}
		}
		t.Logf("%s: %d classes in %d graphs, %d with a twin", label, sn.classes, len(sn.graphs), twins)
		if 2*twins < len(sn.graphs) {
			t.Fatalf("%s: %d of %d graphs have a histogram twin; the fixture lost its shape", label, twins, len(sn.graphs))
		}
		for _, m := range []measure.Measure{measure.DistEd, measure.DistNEd, measure.DistMcs} {
			for _, q := range qs {
				qsig := measure.NewSignature(q)
				n := len(sn.graphs)
				lo, hi := make([]float64, n), make([]float64, n)
				for i, sig := range sn.sigs {
					measure.RankInterval(sig, qsig, []measure.Measure{m}, lo[i:i+1], hi[i:i+1])
				}
				floor := slices.Sorted(slices.Values(hi))[4]
				for _, k := range []int{0, 5} {
					var coll rankedCollector = newRangeCollector(math.Inf(1))
					th := math.Inf(1)
					if k > 0 {
						coll, th = newTopkCollector(k), floor
					}
					var want []int
					for i := range n {
						if lo[i] <= th {
							want = append(want, i)
						}
					}
					slices.SortFunc(want, func(a, b int) int {
						if c := cmp.Compare(lo[a], lo[b]); c != 0 {
							return c
						}
						if c := cmp.Compare(hi[a], hi[b]); c != 0 {
							return c
						}
						return cmp.Compare(sn.seqs[a], sn.seqs[b])
					})
					_, claims, _ := newRankScan(context.Background(), sn, q, qsig, m, QueryOptions{}.withDefaults(), coll)
					if got := coll.threshold(); got != th {
						t.Fatalf("%s %s k=%d: seeded threshold %v, want %v", label, m.Name(), k, got, th)
					}
					var got []int
					for cl, ok := claims.pop(); ok; cl, ok = claims.pop() {
						got = append(got, int(cl.i))
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s k=%d: heap pops %v, sort order %v", label, m.Name(), k, got, want)
					}
				}
			}
		}
	}
	check("fresh", sh.snapshot())

	// Delete every third graph, and every member of the classes the
	// first and the last graph belong to.
	held := sh.snapshot()
	heldCls := slices.Clone(held.cls)
	first, last := held.cls[0], held.cls[len(held.cls)-1]
	var gone []int
	for i, g := range held.graphs {
		if c := held.cls[i]; i%3 == 0 || c == first || c == last {
			gone = append(gone, i)
			if _, err := sh.Delete(g.Name(), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := sh.snapshot()
	if after.classes >= held.classes {
		t.Fatalf("emptying classes left %d of %d", after.classes, held.classes)
	}
	check("after deletes", after)
	check("held across deletes", held)
	if !slices.Equal(held.cls, heldCls) {
		t.Fatal("a delete changed the class column of a snapshot taken before it")
	}
	// Half come back under fresh sequences, half under the ones they
	// had, which land out of sequence order along the snapshot, as
	// concurrent inserts can: the heap must still merge by sequence.
	for k, i := range gone {
		seq := held.seqs[i]
		if k%2 == 0 {
			seq = insertSeq.Add(1)
		}
		if _, err := sh.insert(held.graphs[i], seq, ""); err != nil {
			t.Fatal(err)
		}
	}
	sn := sh.snapshot()
	if slices.IsSorted(sn.seqs) {
		t.Fatal("fixture: re-inserted sequences are in snapshot order")
	}
	check("re-inserted", sn)
}
