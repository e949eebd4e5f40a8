package gdb

import (
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// PrunedPointsInOrder builds the points of q's pruned skyline table over
// sh the way VectorTable does, except that the scan's per-candidate step
// runs sequentially in whatever order permute leaves the candidates
// in — the seam that lets a test schedule the scan.
func PrunedPointsInOrder(sh *Sharded, q *graph.Graph, opts QueryOptions, permute func(order []int)) []skyline.Point {
	opts = opts.withDefaults()
	sn := sh.snapshot()
	qsig := measure.NewSignature(q)
	sc, order := newSkyScan(sn, q, qsig, newEvalCtx(sh.Memo(), q, opts), opts)
	permute(order)
	for _, i := range order {
		sc.settle(i)
	}
	pts, _ := sc.points()
	return pts
}
