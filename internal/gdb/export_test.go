package gdb

import (
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// PrunedPointsInOrder builds the points of q's pruned skyline table over
// db the way VectorTable does, except that the scan's per-candidate step
// runs sequentially in whatever order permute leaves the candidates
// in — the seam that lets a test schedule the scan.
func PrunedPointsInOrder(db *DB, q *graph.Graph, opts QueryOptions, permute func(order []int)) []skyline.Point {
	opts = opts.withDefaults()
	sn := db.snapshot(false)
	qsig := measure.NewSignature(q)
	sc, order := newSkyScan(sn, q, qsig, db.newEvalCtx(q, qsig, opts, nil), opts)
	permute(order)
	for _, i := range order {
		sc.settle(i)
	}
	pts, _ := sc.points()
	return pts
}
