package gdb

import (
	_ "unsafe" // for go:linkname

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// PrunedPointsInOrder builds the points of q's pruned skyline table over
// sh the way VectorTable does, except that the scan's per-candidate step
// runs sequentially in whatever order permute leaves the candidates
// in — the seam that lets a test schedule the scan.
func PrunedPointsInOrder(sh *Sharded, q *graph.Graph, opts QueryOptions, permute func(order []int)) []skyline.Point {
	opts = opts.withDefaults()
	sn := sh.snapshot()
	qsig := measure.NewSignature(q)
	sc, order := newSkyScan(sn, q, qsig, opts)
	permute(order)
	for _, i := range order {
		sc.settle(i)
	}
	pts, _ := sc.points()
	return pts
}

// RankedItemsInOrder answers q's top-k query under m (k >= 1) or, with
// k == 0, its range query at radius, over sh the way TopKQuery and
// RangeQuery do, except that every candidate admitted under the seeded
// floor is settled sequentially, the stop ignored, in whatever order
// permute leaves them in (it is handed them in claim order) — the seam
// that lets a test schedule the ranked scan.
func RankedItemsInOrder(sh *Sharded, q *graph.Graph, m measure.Measure, k int, radius float64, opts QueryOptions, permute func(order []int)) []topk.Item {
	opts = opts.withDefaults()
	var coll rankedCollector = newRangeCollector(radius)
	if k > 0 {
		coll = newTopkCollector(k)
	}
	rs, claims := newRankScan(sh.snapshot(), q, measure.NewSignature(q), m, opts, coll)
	var order []int
	for i, ok := claims.pop(); ok; i, ok = claims.pop() {
		order = append(order, i)
	}
	permute(order)
	for _, i := range order {
		rs.settle(i, coll)
	}
	return coll.items()
}

// BranchDictLen is the length of the process-wide branch dictionary in
// internal/measure. The program has no accessor for it: only tests read
// it, to check that queries never grow it.
//
//go:linkname BranchDictLen skygraph/internal/measure.dictLen
func BranchDictLen() int
