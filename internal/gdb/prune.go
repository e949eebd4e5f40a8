package gdb

import (
	"cmp"
	"context"
	"slices"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/mcs"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Bound-and-scan skyline evaluation. A skyline query does not need the
// exact GCS vector of every database graph: a graph some other graph
// provably dominates can never be Pareto-optimal, so its exact GED/MCS
// never runs — or runs only as far as the proof needs. Evaluation has
// two phases:
//
//	tier 0  every graph's optimistic corner, O(labels) per pair from
//	        the stored signatures (measure.RankInterval, only what the
//	        basis reads), into one flat column. The corners order the
//	        scan
//	scan    every graph, best-first by optimistic corner, against a
//	        running front of the exact vectors kept so far; each is taken
//	        through the cheapest proof that still settles it:
//	        1. a front point dominates its optimistic corner: discarded,
//	           no engine runs; only a survivor gets the full interval
//	           statistics (measure.BoundPair)
//	        1b. the branch bound, read from the query's branch table
//	           (measure.BranchTable), raises GEDLo and a front point
//	           dominates the raised corner: discarded, still no engine
//	           runs (only when the basis reads GED)
//	        2. the MCS engine alone collapses the MCS interval to the
//	           reported |mcs|; the front dominates the corner at GEDLo:
//	           discarded
//	        3. a GED decision run at the dominance limit — the largest
//	           GED at which no front point dominates the vector — stops
//	           AboveLimit: the reported GED exceeds the limit, so the
//	           reported vector is dominated: discarded. A report no
//	           decision run decided (none ran, or the front grew since
//	           the limit was read) meets the front test itself, and a
//	           dominated one is discarded likewise
//	        4. otherwise the two engines' results ARE the pair's exact
//	           statistics and no front point dominates them: the vector
//	           joins the front and the table
//
// Dominance is always strict (Definition 1), so twins and equal vectors
// all survive. Every interval contains the value measure.Compute would
// report (see internal/measure/bound.go), a decision
// run proves a floor of the true distance, which the reported one never
// undercuts, and kept vectors come from the same engine calls as the
// full evaluation — so the skyline over the kept points is
// byte-identical to the skyline of the full evaluation, whatever order
// the scan runs in. The scan is one loop on the calling goroutine: each
// kept vector prunes everything after it, and a second goroutine would
// settle candidates against a front that misses the vectors still in
// flight, so which candidates the proofs spare is a fixed function of
// (snapshot, query, basis).

// skyFront is the scan's running set of reported exact vectors.
type skyFront [][]float64

// dominates reports whether some front point strictly dominates v.
func (f skyFront) dominates(v []float64) bool {
	return slices.ContainsFunc(f, func(fv []float64) bool { return skyline.Dominates(fv, v) })
}

// skyScan is the scan over one snapshot. The per-candidate column vecs
// is indexed like the snapshot, written only by the one settle call of
// its candidate and read after the scan.
type skyScan struct {
	sn   snap
	q    *graph.Graph
	qsig *measure.Signature
	opts QueryOptions
	// stop stops the exact engines (measure.Options.Stop): the query's
	// Done channel, or nil for a delta row, which is never stopped.
	stop <-chan struct{}
	// los holds every candidate's tier-0 optimistic corner, one row of
	// d = len(opts.Basis) coordinates per candidate, back to back.
	los   []float64
	d     int
	front skyFront
	vecs  [][]float64 // exact vector of every kept candidate
	// readsGED reports whether some basis measure reads GED, the only
	// case in which outcome 1b's branch bound can move the corner.
	readsGED bool
}

// newSkyScan runs tier 0 for q against the snapshot — every graph's
// optimistic corner from its stored signature alone
// (measure.RankInterval, which computes only what the basis reads) —
// and returns the scan state with every candidate in scan order:
// ascending optimistic corner, so the likeliest skyline members score
// first and everything behind them meets a front; ties go by insert
// sequence. Tier 0 excludes nothing itself: pessimistic corners
// (delete-all GED, zero MCS) almost never dominate, so it never
// computes them. It polls ctx once every pollClasses candidates and
// returns ctx.Err() once it is done, before any settle; the scan's
// engines stop on ctx's Done channel.
func newSkyScan(ctx context.Context, sn snap, q *graph.Graph, qsig *measure.Signature, opts QueryOptions) (*skyScan, []int, error) {
	n, d := len(sn.graphs), len(opts.Basis)
	start := time.Now()
	sc := &skyScan{
		sn: sn, q: q, qsig: qsig, opts: opts, stop: ctx.Done(),
		readsGED: slices.ContainsFunc(opts.Basis, func(m measure.Measure) bool {
			needGED, _ := measure.EngineNeeds(m)
			return needGED
		}),
		los:  make([]float64, n*d),
		d:    d,
		vecs: make([][]float64, n),
	}
	order := make([]int, n)
	for i, sig := range sn.sigs {
		if i%pollClasses == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		order[i] = i
		measure.RankInterval(sig, qsig, opts.Basis, sc.corner(i), nil)
	}
	sortScanOrder(order, sc.los, d, sn.seqs)
	opts.Trace.Observe(StageBound, time.Since(start), n, 0)
	return sc, order, nil
}

// corner is candidate i's tier-0 optimistic corner, a row of los.
func (sc *skyScan) corner(i int) []float64 {
	return sc.los[i*sc.d : (i+1)*sc.d : (i+1)*sc.d]
}

// sortScanOrder sorts candidate indices by ascending optimistic corner,
// compared lexicographically, ties by insert sequence; los holds the
// corners as rows of d coordinates, indexed like seqs. Sequences are
// unique, so the order is total. Corners are finite (tier-0 GED lo is
// a label-histogram count), so no NaN upsets the comparison.
func sortScanOrder(order []int, los []float64, d int, seqs []uint64) {
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := los[a*d:(a+1)*d], los[b*d:(b+1)*d]
		for k, x := range ra {
			switch y := rb[k]; {
			case x < y:
				return -1
			case x > y:
				return 1
			}
		}
		return cmp.Compare(seqs[a], seqs[b])
	})
}

// settle takes candidate i through outcomes 1–4 above against the
// front as it stands, recording its exact vector when it is kept: it
// keeps i exactly when no front point strictly dominates that vector.
// It is a plain function of (candidate, front): any call order yields a
// table with the same skyline, and the scan order (evalPruned) is the
// one that spares the most engine runs.
func (sc *skyScan) settle(i int) {
	if sc.front.dominates(sc.corner(i)) {
		return
	}
	g, sig := sc.sn.graphs[i], sc.sn.sigs[i]
	// Only a candidate the front test spared needs the full interval
	// statistics: the engines plan from them.
	bs := measure.BoundPair(sig, sc.qsig)
	// Outcome 1b: the branch bound lifts the corner's GED; a front point
	// that dominates the lifted corner discards the candidate before any
	// engine runs. The raised GEDLo also starts outcome 2's dominance
	// limit higher.
	if sc.readsGED {
		if lb := sc.qsig.BranchTable().LB(sig); lb > bs.GEDLo {
			bs.GEDLo = lb
			if sc.front.dominates(bs.OptimisticGCS(sc.opts.Basis)) {
				return
			}
		}
	}
	// The plain MCS run, as measure.Compute runs it.
	mcsv := mcs.Exact(g, sc.q, mcs.Options{Stop: sc.stop}).Mapping.Edges
	bs.MCSLo, bs.MCSHi = mcsv, mcsv
	limit := bs.GEDLimit(mcsv, sc.opts.Basis, func(vec []float64) bool { return !sc.front.dominates(vec) })
	// A limit below GEDLo (outcome 2) excludes before any engine runs;
	// otherwise got is exactly what measure.Compute's GED engine call
	// reports.
	_, got, excluded := measure.ComputeRankResults(g, sc.q, measure.DistEd, limit, bs, measure.Options{Stop: sc.stop})
	if excluded {
		return
	}
	got.MCS = mcsv
	ps := measure.PairStatsFrom(sig, sc.qsig, got)
	vec := measure.GCS(&ps, sc.opts.Basis)
	if sc.front.dominates(vec) {
		return // outcome 3 on a report no decision run decided
	}
	sc.vecs[i] = vec
	sc.front = append(sc.front, vec)
}

// evalPruned runs the pipeline for q against the snapshot: tier 0,
// then one loop that settles every candidate in scan order on the
// calling goroutine. It returns the exact points of the kept graphs in
// snapshot order and the number of graphs excluded without a full
// exact evaluation; both are the same on every run over one snapshot.
// Once ctx is done tier 0 stops bounding, the engines stop, and it
// returns ctx.Err().
func evalPruned(ctx context.Context, sn snap, q *graph.Graph, qsig *measure.Signature, opts QueryOptions) (pts []skyline.Point, pruned int, err error) {
	n := len(sn.graphs)
	if n == 0 {
		return []skyline.Point{}, 0, nil
	}
	sc, order, err := newSkyScan(ctx, sn, q, qsig, opts)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for _, i := range order {
		if ctx.Err() != nil {
			break
		}
		sc.settle(i)
	}
	if err = ctx.Err(); err != nil {
		return nil, 0, err
	}
	pts = sc.points()
	// Every candidate entering the scan is exact-stage work (engine runs,
	// decision runs, or a front test that spared them all);
	// the ones it discarded are the stage's exclusions.
	opts.Trace.Observe(StageExact, time.Since(start), n, n-len(pts))
	return pts, n - len(pts), nil
}

// points returns the kept candidates in snapshot order.
func (sc *skyScan) points() []skyline.Point {
	pts := make([]skyline.Point, 0, len(sc.front))
	for i, vec := range sc.vecs {
		if vec != nil {
			pts = append(pts, skyline.Point{ID: sc.sn.graphs[i].Name(), Vec: vec})
		}
	}
	return pts
}
