package gdb

import (
	"context"
	"fmt"
	"time"

	"skygraph/internal/diversity"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// QueryOptions configures similarity queries. A pruned skyline scan
// and a ranked scan run on the calling goroutine, so their counters
// (Work, Trace) are a fixed function of the snapshot, the query and the
// options; only a complete table and the diversity matrix, whose pairs
// do not depend on each other, are spread over GOMAXPROCS goroutines.
type QueryOptions struct {
	// Basis is the measure vector defining the GCS (Definition 11); nil
	// means the paper's default (DistEd, DistMcs, DistGu).
	Basis []measure.Measure
	// Prune enables filter-and-refine evaluation of skyline queries,
	// driven by the signature/bound index: graphs whose bound intervals —
	// or a progressive scan against the exact vectors found so far
	// (prune.go) — prove them dominated are never evaluated exactly. The
	// skyline is identical to an unpruned run, but SkylineResult.All (and
	// VectorTable.Points) then holds only the candidates the scan scored,
	// so leave Prune off when the full table is needed. Ignored by
	// diversity queries, and by top-k and range queries, which always
	// run the best-first scan.
	Prune bool
	// Trace, when non-nil, accumulates per-cascade-stage work counters
	// and durations for this query (see trace.go). Nil (the default)
	// records nothing and costs nothing.
	Trace *QueryTrace
}

func (o QueryOptions) withDefaults() QueryOptions {
	if o.Basis == nil {
		o.Basis = measure.Default()
	}
	return o
}

// Work is the one definition of the per-evaluation work counters: the
// exact pairs an evaluation paid for and what the cascade spared (the
// cost model of GSS(D, q), Definition 12). Every layer carries this
// type instead of re-declaring its fields — table builds, ranked scans,
// QueryStats, the serving layer's wire stats (which embed it, so the
// JSON tags below ARE the wire keys), its lifetime totals and its
// /metrics families. The counters describe fresh work only: an answer
// served from a cache reports the zero Work.
type Work struct {
	// Evaluated counts graphs whose exact answer contribution was
	// computed: the full GCS vector for skyline queries, the exact
	// ranking score for top-k and range queries.
	Evaluated int `json:"evaluated"`
	// Pruned counts graphs excluded without exact evaluation: the
	// progressive scan's front tests and decision runs for skyline
	// queries under QueryOptions.Prune; the best-first threshold cutoff,
	// the branch bound and the threshold-fed engine decision runs for
	// top-k and range queries. Each is attributed to exactly one trace
	// stage (see trace.go).
	Pruned int `json:"pruned"`
}

// Add folds o into w.
func (w *Work) Add(o Work) {
	w.Evaluated += o.Evaluated
	w.Pruned += o.Pruned
}

// QueryStats reports work done by a query.
type QueryStats struct {
	Work
	// Duration is the wall-clock query time.
	Duration time.Duration
}

// SkylineResult is the answer to a similarity skyline query.
type SkylineResult struct {
	// Skyline is GSS(D, q): the non-dominated graphs with their GCS
	// vectors, in database insertion order.
	Skyline []skyline.Point
	// All holds every evaluated (graph, vector) pair, in insertion order —
	// the full Table III analogue. Under QueryOptions.Prune it holds only
	// the candidates the scan scored (the others have no exact vector):
	// the scan is one sequential pass, so two runs over one snapshot
	// score the same candidates.
	All   []skyline.Point
	Stats QueryStats
}

// DominatedBy reports, for a non-skyline graph of r.All, one skyline
// member that dominates it; for skyline members and graphs outside
// r.All it returns ok=false.
func (r SkylineResult) DominatedBy(name string) (dominator string, ok bool) {
	var target []float64
	for _, p := range r.All {
		if p.ID == name {
			target = p.Vec
			break
		}
	}
	if target == nil {
		return "", false
	}
	for _, p := range r.Skyline {
		if p.ID != name && skyline.Dominates(p.Vec, target) {
			return p.ID, true
		}
	}
	return "", false
}

// SkylineQuery computes the graph similarity skyline GSS(D, q) of
// Definition 12/Eq. 4: one scan evaluates the GCS vector of every
// graph against q — all of them, or just the candidates no cheaper
// proof discards under QueryOptions.Prune (see prune.go) — and the
// table's Pareto-optimal rows are the answer. Once ctx is done the
// exact engines stop, and the query returns ctx.Err().
func (db *DB) SkylineQuery(ctx context.Context, q *graph.Graph, opts QueryOptions) (SkylineResult, error) {
	start := time.Now()
	t, err := db.VectorTable(ctx, q, opts)
	if err != nil {
		return SkylineResult{}, err
	}
	mstart := time.Now()
	res := SkylineResult{
		Skyline: t.Skyline(),
		All:     t.Points,
		Stats:   QueryStats{Work: t.Work, Duration: time.Since(start)},
	}
	opts.Trace.Observe(StageMerge, time.Since(mstart), len(res.All), 0)
	return res, nil
}

// TopKResult is the answer to a single-measure ranked query, top-k or
// range.
type TopKResult struct {
	Items []topk.Item
	Stats QueryStats
	// Generation is the generation of the snapshot the scan read: the
	// answer is exact at it, as VectorTable.Generation is for a table.
	Generation uint64
}

// TopKQuery is the single-measure baseline (Section VI): the k database
// graphs with the smallest distance under one measure, in ascending
// (score, ID) order. It runs the best-first bound-index scan of
// ranked.go against one collector, so the k-th best score seen so far
// prunes every remaining candidate — no table is built. opts.Basis and
// opts.Prune do not apply.
func (db *DB) TopKQuery(ctx context.Context, q *graph.Graph, m measure.Measure, k int, opts QueryOptions) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("gdb: k must be >= 1")
	}
	return db.rankedQuery(ctx, q, m, opts, newTopkCollector(k))
}

// RangeQuery returns every graph whose distance to q under m is at most
// radius, in insertion order: the best-first scan with the radius
// as a fixed threshold, under the same conditions as TopKQuery.
func (db *DB) RangeQuery(ctx context.Context, q *graph.Graph, m measure.Measure, radius float64, opts QueryOptions) (TopKResult, error) {
	return db.rankedQuery(ctx, q, m, opts, newRangeCollector(radius))
}

// rankedQuery scans one snapshot of the database into coll and reports
// the collected answer: top-k in ascending (score, ID) order, range in
// insertion order. Reading the answer out is the merge stage.
func (db *DB) rankedQuery(ctx context.Context, q *graph.Graph, m measure.Measure, opts QueryOptions, coll rankedCollector) (TopKResult, error) {
	start := time.Now()
	opts = opts.withDefaults()
	sn := db.snapshot()
	stats, err := evalRanked(ctx, sn, measure.NewSignature(q), q, m, opts, coll)
	if err != nil {
		return TopKResult{}, err
	}
	mstart := time.Now()
	items := coll.items()
	opts.Trace.Observe(StageMerge, time.Since(mstart), len(items), 0)
	stats.Duration = time.Since(start)
	return TopKResult{Items: items, Stats: stats, Generation: sn.gen}, nil
}

// DiverseResult is the answer to a diversity-refined skyline query
// (Section VII).
type DiverseResult struct {
	SkylineResult
	// Selected is the maximally diverse k-subset of the skyline (graph
	// names, in skyline order).
	Selected []string
	// Val is the winning rank sum (only set by the exhaustive path).
	Val int
	// Exhaustive reports whether the optimal subset search ran (false =
	// greedy fallback for very large skylines).
	Exhaustive bool
}

// DiverseSkylineQuery computes the skyline and then extracts its most
// diverse k-subset per Section VII: pairwise distances between skyline
// members are evaluated in the diversity basis (DistNEd, DistMcs, DistGu),
// every k-subset is dense-ranked per dimension, and the minimal rank sum
// wins. Skylines whose C(n,k) exceeds maxCandidates fall back to the greedy
// farthest-point heuristic. If k >= |skyline| the whole skyline is selected.
func (db *DB) DiverseSkylineQuery(ctx context.Context, q *graph.Graph, k int, opts QueryOptions) (DiverseResult, error) {
	if k < 1 {
		return DiverseResult{}, fmt.Errorf("gdb: k must be >= 1")
	}
	// Diversity reports the full vector table alongside the selection, so
	// the pruned evaluation path (which drops dominated rows) is not used.
	opts.Prune = false
	skyRes, err := db.SkylineQuery(ctx, q, opts)
	if err != nil {
		return DiverseResult{}, err
	}
	res := DiverseResult{SkylineResult: skyRes}
	n := len(skyRes.Skyline)
	if n == 0 {
		return res, nil
	}
	if k >= n {
		for _, p := range skyRes.Skyline {
			res.Selected = append(res.Selected, p.ID)
		}
		res.Exhaustive = true
		return res, nil
	}
	gs := make([]*graph.Graph, n)
	for i, p := range skyRes.Skyline {
		g, ok := db.Get(p.ID)
		if !ok {
			return DiverseResult{}, fmt.Errorf("gdb: skyline member vanished during query")
		}
		gs[i] = g
	}
	mat, err := pairwiseMatrix(ctx, gs)
	if err != nil {
		return DiverseResult{}, err
	}
	best, _, exErr := diversity.Exhaustive(mat, k, 0)
	if exErr != nil {
		sel, gErr := diversity.Greedy(mat, k)
		if gErr != nil {
			return DiverseResult{}, gErr
		}
		for _, i := range sel {
			res.Selected = append(res.Selected, skyRes.Skyline[i].ID)
		}
		return res, nil
	}
	for _, i := range best.Members {
		res.Selected = append(res.Selected, skyRes.Skyline[i].ID)
	}
	res.Val = best.Val
	res.Exhaustive = true
	return res, nil
}

// pairwiseMatrix evaluates the diversity-basis distances between all
// pairs of the skyline members gs. The pairs do not depend on each
// other, so they run on forEachClaim's pool. Once ctx is done the
// engines stop, and it returns ctx.Err().
func pairwiseMatrix(ctx context.Context, gs []*graph.Graph) (*diversity.Matrix, error) {
	basis := measure.DiversityBasis()
	mat := diversity.NewMatrix(len(gs), len(basis))
	type pair struct{ i, j int }
	var pairs []pair
	for i := range gs {
		for j := i + 1; j < len(gs); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	eval := measure.Options{Stop: ctx.Done()}
	err := forEachClaim(ctx, len(pairs), func(k int) {
		p := pairs[k]
		ps := measure.Compute(gs[p.i], gs[p.j], eval)
		for d, m := range basis {
			mat.Set(d, p.i, p.j, m.FromStats(&ps))
		}
	})
	if err != nil {
		return nil, err
	}
	return mat, nil
}
