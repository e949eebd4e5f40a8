package gdb

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

func requireSameItems(t *testing.T, label string, want, got []topk.Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: item counts differ: want %v, got %v", label, want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: item %d differs: want %+v, got %+v (want %v got %v)", label, i, want[i], got[i], want, got)
		}
	}
}

// TestRankedCanceled checks the ranked scan honors context
// cancellation.
func TestRankedCanceled(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKQuery(ctx, dataset.PaperQuery(), measure.DistEd, 2, QueryOptions{}); err == nil {
		t.Error("canceled top-k succeeded")
	}
	if _, err := db.RangeQuery(ctx, dataset.PaperQuery(), measure.DistEd, 2, QueryOptions{}); err == nil {
		t.Error("canceled range succeeded")
	}
}

// TestKSmallestMatchesSortedFloor: batch by batch, the bounded heap's
// k-th value is the floor the scan used to compute by copying every
// upper bound probed so far, sorting, and taking index k-1 — including
// while fewer than k uppers exist (no floor), on ties and on +Inf.
func TestKSmallestMatchesSortedFloor(t *testing.T) {
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(5))
	random := make([][]float64, 12)
	for b := range random {
		random[b] = make([]float64, rng.Intn(9))
		for i := range random[b] {
			// Small integers make ties the common case, as on DistEd.
			random[b][i] = float64(rng.Intn(6))
			if rng.Intn(10) == 0 {
				random[b][i] = inf
			}
		}
	}
	for _, tc := range []struct {
		name    string
		batches [][]float64
	}{
		{"fewer than k", [][]float64{{3}, {1}}},
		{"ties", [][]float64{{2, 2, 2}, {2, 1, 2}, {1, 1}}},
		{"inf", [][]float64{{inf, inf}, {inf, 4}, {inf, 3, inf}, {0}}},
		{"empty batches", [][]float64{{}, {5, 4, 3}, {}, {9}}},
		{"random", random},
	} {
		for _, k := range []int{1, 2, 3, 5} {
			var all []float64
			h := kSmallest{k: k}
			for b, batch := range tc.batches {
				for _, v := range batch {
					all = append(all, v)
					h.push(v)
				}
				got, ok := h.kth()
				if len(all) < k {
					if ok {
						t.Fatalf("%s k=%d batch %d: floor %v from %d uppers", tc.name, k, b, got, len(all))
					}
					continue
				}
				sorted := append([]float64(nil), all...)
				sort.Float64s(sorted)
				if want := sorted[k-1]; !ok || got != want {
					t.Fatalf("%s k=%d batch %d: floor %v (ok=%v), want %v", tc.name, k, b, got, ok, want)
				}
			}
		}
	}
	var none kSmallest
	none.push(1)
	if _, ok := none.kth(); ok {
		t.Fatal("k=0 heap reported a floor")
	}
}

// TestClaimHeapMatchesSortOrder: popping the whole claim heap yields
// exactly the order the scan used to sort its admitted candidates into
// — ascending lo, then hi, then insert sequence — on random inputs where
// lo and hi are small integers, so ties are the common case, with an
// occasional +Inf hi, and sequences are unique but not in index order.
func TestClaimHeapMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := range 300 {
		n := rng.Intn(40)
		lo, hi := make([]float64, n), make([]float64, n)
		seqs := make([]uint64, n)
		for i, p := range rng.Perm(n) {
			lo[i] = float64(rng.Intn(4))
			hi[i] = lo[i] + float64(rng.Intn(3))
			if rng.Intn(8) == 0 {
				hi[i] = math.Inf(1)
			}
			seqs[i] = uint64(100 + 3*p)
		}
		var idx []int
		for i := range n {
			if rng.Intn(5) > 0 {
				idx = append(idx, i)
			}
		}
		want := slices.Clone(idx)
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(lo[a], lo[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(hi[a], hi[b]); c != 0 {
				return c
			}
			return cmp.Compare(seqs[a], seqs[b])
		})
		h := newClaimHeap(idx, lo, hi, groupByClass(nil, n, seqs), seqs)
		var got []int
		for cl, ok := h.pop(); ok; cl, ok = h.pop() {
			got = append(got, int(cl.i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: heap pops %v, sort order %v", trial, got, want)
		}
	}
}
