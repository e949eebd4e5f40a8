package gdb

import (
	"sort"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
	"skygraph/internal/vector"
)

// Query-side consumption of the vector candidate tier (internal/vector),
// by ranked scans only — skyline table builds never consult it. The
// tier sits BELOW the bound cascade: it never excludes anything on
// its own authority. Everything it proves comes from per-cell summaries
// that bracket every member — vertex/edge count ranges and per-pivot
// distance ranges — turned into an admissible floor on the reported
// distance via the same FromStats algebra the measures themselves use:
//
//   - a synthetic PairStats is assembled from the OPTIMISTIC end of
//     every summary (smallest provable GED, largest possible common
//     subgraph, zero histogram distances), so for any built-in measure
//     m, m.FromStats(synthetic) <= the score the scan would report for
//     every member of the cell;
//   - the GED floor combines the order/size gap (|Δ|V|| + |Δ|E|| <= GED)
//     with the pivot triangle floor max_j max(qd_j.Lo − PivHi_j,
//     PivLo_j − qd_j.Hi), the latter only when the query's pivot bounds
//     and the cell summaries come from the same pivot-selection epoch;
//   - measures the summaries say nothing about degrade to a floor of 0
//     — never wrong, merely never able to skip.
//
// A partition is consumed only when its generation matches the query's
// snapshot, so cell member indices are exact snapshot indices; any
// mismatch is a counted fallback to the plain scan. Answers are
// byte-identical with the tier on, off, or falling back.

// vecBatch is one probe unit of a ranked scan: the members of one
// partition cell (snapshot indices, ascending) plus the cell's
// admissible floor under the query measure and its centroid proximity.
type vecBatch struct {
	members []int
	floor   float64
	cdist   float64
	cell    int
}

// vecState is one ranked query's view of the vector tier: the probe
// plan in ascending (floor, centroid distance, cell) order, or a
// counted fallback. A nil *vecState means the tier is simply off.
type vecState struct {
	batches  []vecBatch
	fallback bool
	planDur  time.Duration
}

// startVector builds the probe plan for a ranked scan of sn under m.
// It returns nil when the tier is off (no index attached, or the
// partition is still dormant) and a fallback-marked state when an
// attached partition cannot serve this snapshot (generation mismatch).
func (db *DB) startVector(sn snap, qsig *measure.Signature, q *graph.Graph, m measure.Measure, ec *evalCtx) *vecState {
	vidx := db.VectorIndex()
	if vidx == nil {
		return nil
	}
	start := time.Now()
	part := vidx.Snapshot()
	if part == nil {
		return nil // dormant below Config.Cells members: tier off, not a fallback
	}
	if part.Gen != sn.gen || part.N != len(sn.graphs) {
		return &vecState{fallback: true, planDur: time.Since(start)}
	}
	pb := queryPivotBounds(ec)
	qvec := part.QueryVec(graph.WLHistogram(q, vidx.Config().WLIters, part.WLDims), queryMidpoints(pb, part))
	vs := &vecState{batches: make([]vecBatch, 0, len(part.Cells))}
	for c := range part.Cells {
		cell := &part.Cells[c]
		if len(cell.Members) == 0 {
			continue
		}
		vs.batches = append(vs.batches, vecBatch{
			members: cell.Members,
			floor:   cellFloor(part, cell, qsig, m, pb),
			cdist:   part.CentroidDist(qvec, c),
			cell:    c,
		})
	}
	// Ascending floor first: the wholesale-skip guard relies on every
	// batch after the failing one having a floor at least as high.
	// Within a floor tie (floor 0 is the common case near the query),
	// centroid proximity orders the probes so the threshold tightens on
	// true near-neighbors first; the cell index keeps ties deterministic.
	sort.SliceStable(vs.batches, func(a, b int) bool {
		x, y := &vs.batches[a], &vs.batches[b]
		if x.floor != y.floor {
			return x.floor < y.floor
		}
		if x.cdist != y.cdist {
			return x.cdist < y.cdist
		}
		return x.cell < y.cell
	})
	vs.planDur = time.Since(start)
	return vs
}

// queryPivotBounds extracts the pivot tier's per-query state (nil-safe).
func queryPivotBounds(ec *evalCtx) *pivot.QueryBounds {
	if ec == nil {
		return nil
	}
	return ec.pb
}

// queryMidpoints returns the query's pivot-distance midpoints when the
// pivot bounds share the partition's selection epoch, nil otherwise
// (the embedding's pivot block is then zero — an ordering concern only,
// never a correctness one).
func queryMidpoints(pb *pivot.QueryBounds, part *vector.Partition) []float64 {
	if pb == nil || pb.Epoch() != part.PivotEpoch {
		return nil
	}
	return pb.Midpoints()
}

// cellFloor derives an admissible lower bound on the distance the scan
// would REPORT under m between the query and every member of the cell,
// from the cell summaries alone. Admissible capped or not: the floor
// bounds the true distance from below, and capped engines only report
// pessimistically (GED high, MCS low), never below the true value's
// floor.
func cellFloor(part *vector.Partition, cell *vector.Cell, qsig *measure.Signature, m measure.Measure, pb *pivot.QueryBounds) float64 {
	// Order/size gap: every vertex-count difference costs a vertex edit,
	// every edge-count difference an edge edit, and the two op classes
	// are disjoint, so their sum lower-bounds GED for every member.
	orderGap := 0.0
	if d := float64(qsig.Order - cell.OrderMax); d > orderGap {
		orderGap = d
	}
	if d := float64(cell.OrderMin - qsig.Order); d > orderGap {
		orderGap = d
	}
	sizeGap := 0.0
	if d := float64(qsig.Size - cell.SizeMax); d > sizeGap {
		sizeGap = d
	}
	if d := float64(cell.SizeMin - qsig.Size); d > sizeGap {
		sizeGap = d
	}
	gedLo := orderGap + sizeGap
	// Pivot triangle floor: d(q,g) >= d(q,p) − d(p,g) >= qd.Lo − PivHi,
	// and symmetrically PivLo − qd.Hi. Sound only when the cell's ranges
	// and the query's distances refer to the same pivots — same epoch,
	// same count — and the ranges cover every member (PivAll).
	if cell.PivAll && pb != nil && pb.Epoch() == part.PivotEpoch && pb.NumPivots() == len(cell.PivLo) {
		for j := range cell.PivLo {
			e := pb.QueryDistance(j)
			if l := e.Lo - cell.PivHi[j]; l > gedLo {
				gedLo = l
			}
			if l := cell.PivLo[j] - e.Hi; l > gedLo {
				gedLo = l
			}
		}
	}
	// Largest conceivable common subgraph: no member can share more
	// edges with the query than either side has.
	mcsHi := qsig.Size
	if cell.SizeMax < mcsHi {
		mcsHi = cell.SizeMax
	}
	// Each field sits at its most favorable feasible end, and every
	// built-in FromStats is monotone in each field in the direction that
	// makes the composite a lower bound (smaller GED, larger MCS,
	// smaller sizes, zero histogram distances -> smaller distance).
	// Measures reading only the zeroed fields floor at <= 0: never skip.
	return m.FromStats(measure.PairStats{
		GED: gedLo, GEDExact: true,
		MCS: mcsHi, MCSExact: true,
		Size1: cell.SizeMin, Size2: qsig.Size,
		Order1: cell.OrderMin, Order2: qsig.Order,
	})
}
