package gdb

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestScanOrderIsStableSort: with insert sequences ascending like the
// indices, the scan order equals a stable sort of the ascending survivor
// indices by optimistic corner, on a grid where most corners tie on some
// or all coordinates. The corners sit in one flat column, a row of dims
// coordinates per candidate, as the scan stores them.
func TestScanOrderIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := []float64{0, 0.25, 0.5, 1, 2}
	for trial := 0; trial < 200; trial++ {
		n, dims := 1+rng.Intn(60), 1+rng.Intn(3)
		los := make([]float64, n*dims)
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(i)
			for d := range dims {
				los[i*dims+d] = vals[rng.Intn(1+rng.Intn(len(vals)))]
			}
		}
		var order []int
		for i := 0; i < n; i++ {
			if rng.Intn(4) > 0 {
				order = append(order, i)
			}
		}
		want := slices.Clone(order)
		sort.SliceStable(want, func(a, b int) bool {
			la, lb := los[want[a]*dims:], los[want[b]*dims:]
			for d := range dims {
				if la[d] != lb[d] {
					return la[d] < lb[d]
				}
			}
			return false
		})
		sortScanOrder(order, los, dims, seqs)
		if !slices.Equal(order, want) {
			t.Fatalf("trial %d: scan order %v, stable sort %v", trial, order, want)
		}
	}
}
