package gdb

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"skygraph/internal/diversity"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// QueryOptions configures similarity queries.
type QueryOptions struct {
	// Basis is the measure vector defining the GCS (Definition 11); nil
	// means the paper's default (DistEd, DistMcs, DistGu).
	Basis []measure.Measure
	// Eval bounds the exact GED/MCS engines (zero = exact, unbounded).
	Eval measure.Options
	// Workers is the parallelism for pair evaluation; 0 means GOMAXPROCS.
	Workers int
	// Algorithm computes the skyline; nil means skyline.SFS.
	Algorithm skyline.Algorithm
	// QueryHash optionally carries graph.QueryHash(q), precomputed by
	// the caller (the serving layer computes it for its cache keys
	// anyway). The cross-query score memo keys on it; when empty it is
	// computed on demand, once per evaluation.
	QueryHash string
	// Prune enables filter-and-refine evaluation of skyline queries,
	// driven by the signature/bound index: graphs whose bound intervals —
	// or a progressive scan against the exact vectors found so far
	// (prune.go) — prove them dominated are never evaluated exactly. The
	// skyline is identical to an unpruned run, but SkylineResult.All (and
	// VectorTable.Points) then holds only the candidates the scan scored,
	// so leave Prune off when the full table is needed. Ignored for bases
	// outside this package's built-ins, by diversity queries, and by
	// top-k and range queries, which always run the best-first scan.
	Prune bool
	// Trace, when non-nil, accumulates per-cascade-stage work counters
	// and durations for this query (see trace.go). The same trace may be
	// shared by every shard of a sharded query; recording is
	// concurrency-safe. Nil (the default) records nothing and costs
	// nothing.
	Trace *QueryTrace
}

func (o QueryOptions) withDefaults() QueryOptions {
	if o.Basis == nil {
		o.Basis = measure.Default()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Algorithm == nil {
		o.Algorithm = skyline.SFS
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
	// ranking score for top-k and range queries (score-memo replays
	// included — the value is exact either way).
	Evaluated int `json:"evaluated"`
	// Pruned counts graphs excluded without exact evaluation: the
	// progressive scan's front tests and decision runs for skyline
	// queries under QueryOptions.Prune; the best-first threshold cutoff,
	// the branch bound and the threshold-fed engine decision runs for
	// top-k and range queries. Each is attributed to exactly one trace
	// stage (see trace.go).
	Pruned int `json:"pruned"`
	// MemoHits and MemoMisses count cross-query score-memo lookups;
	// hits replayed recorded engine results instead of running engines.
	MemoHits   int `json:"memo_hits"`
	MemoMisses int `json:"memo_misses"`
}

// Add folds o into w.
func (w *Work) Add(o Work) {
	w.Evaluated += o.Evaluated
	w.Pruned += o.Pruned
	w.MemoHits += o.MemoHits
	w.MemoMisses += o.MemoMisses
}

// QueryStats reports work done by a query.
type QueryStats struct {
	Work
	// Inexact counts pairs where a capped engine returned a bound rather
	// than the exact value.
	Inexact int
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
	// the candidates the scan scored (the others have no exact vector).
	All   []skyline.Point
	Stats QueryStats
}

// SkylineQuery computes the graph similarity skyline GSS(D, q) of
// Definition 12/Eq. 4: every shard evaluates the GCS vector of its
// graphs against q in parallel — all of them, or just the candidates no
// cheaper proof discards under QueryOptions.Prune (see prune.go) — keeps
// its Pareto-optimal ones, and the local skylines are cross-filtered
// into the global one. Evaluation checks ctx between pairs and aborts
// early with ctx.Err().
func (sh *Sharded) SkylineQuery(ctx context.Context, q *graph.Graph, opts QueryOptions) (SkylineResult, error) {
	start := time.Now()
	tables, err := sh.VectorTables(ctx, q, opts)
	if err != nil {
		return SkylineResult{}, err
	}
	var mstart time.Time
	if opts.Trace != nil {
		mstart = time.Now()
	}
	res := SkylineResult{
		Skyline: sh.MergeSkyline(tables, opts.Algorithm),
		All:     sh.MergeTables(tables),
		Stats:   mergedStats(tables, start),
	}
	if opts.Trace != nil {
		opts.Trace.Observe(StageMerge, time.Since(mstart), len(res.All), 0)
	}
	return res, nil
}

// TopKResult is the answer to a single-measure ranked query, top-k or
// range.
type TopKResult struct {
	Items []topk.Item
	Stats QueryStats
}

// TopKQuery is the single-measure baseline (Section VI): the k database
// graphs with the smallest distance under one measure, in ascending
// (score, ID) order. Every shard runs the best-first bound-index scan of
// ranked.go concurrently against ONE shared collector, so the k-th best
// score seen anywhere prunes candidates everywhere — no shard builds a
// table. m must be one of the built-in measures (measure.Rankable): the
// scan needs its bounds. opts.Basis, opts.Algorithm and opts.Prune do
// not apply.
func (sh *Sharded) TopKQuery(ctx context.Context, q *graph.Graph, m measure.Measure, k int, opts QueryOptions) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("gdb: k must be >= 1")
	}
	return sh.rankedQuery(ctx, q, m, opts, newTopkCollector(k))
}

// RangeQuery returns every graph whose distance to q under m is at most
// radius, in global insertion order: the best-first scan with the radius
// as a fixed threshold, under the same conditions as TopKQuery.
func (sh *Sharded) RangeQuery(ctx context.Context, q *graph.Graph, m measure.Measure, radius float64, opts QueryOptions) (TopKResult, error) {
	return sh.rankedQuery(ctx, q, m, opts, newRangeCollector(radius))
}

// rankedQuery scans every shard concurrently into coll and reports the
// collected answer: top-k in ascending (score, ID) order as collected,
// range restored to global insertion order (the scan finishes out of
// order). Reading the answer out is the merge stage. opts.Workers is
// the per-shard scan width; 0 spreads GOMAXPROCS over the shards. The
// first shard error fails the query.
func (sh *Sharded) rankedQuery(ctx context.Context, q *graph.Graph, m measure.Measure, opts QueryOptions, coll rankedCollector) (TopKResult, error) {
	if !measure.Rankable(m) {
		return TopKResult{}, fmt.Errorf("gdb: measure %s has no bounds to rank by (not a built-in)", m.Name())
	}
	start := time.Now()
	opts.Workers = shardWorkers(opts.Workers, len(sh.shards))
	if opts.QueryHash == "" && sh.Memo() != nil {
		// Canonicalize once for all shards; each shard's memo keys use it.
		opts.QueryHash = graph.QueryHash(q)
	}
	qsig := measure.NewSignature(q)
	stats := make([]QueryStats, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, db := range sh.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = db.scanRanked(ctx, q, qsig, m, opts, coll)
		}()
	}
	wg.Wait()
	total := QueryStats{}
	for i, err := range errs {
		if err != nil {
			return TopKResult{}, err
		}
		total.Work.Add(stats[i].Work)
		total.Inexact += stats[i].Inexact
	}
	mstart := time.Now()
	items := coll.items()
	if _, isRange := coll.(*rangeCollector); isRange {
		sh.sortItemsByRank(items)
	}
	opts.Trace.Observe(StageMerge, time.Since(mstart), len(items), 0)
	total.Duration = time.Since(start)
	return TopKResult{Items: items, Stats: total}, nil
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
func (sh *Sharded) DiverseSkylineQuery(ctx context.Context, q *graph.Graph, k int, opts QueryOptions) (DiverseResult, error) {
	if k < 1 {
		return DiverseResult{}, fmt.Errorf("gdb: k must be >= 1")
	}
	// Diversity reports the full vector table alongside the selection, so
	// the pruned evaluation path (which drops dominated rows) is not used.
	opts.Prune = false
	skyRes, err := sh.SkylineQuery(ctx, q, opts)
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
	mat, err := sh.pairwiseMatrix(skyRes.Skyline, opts)
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

// pairwiseMatrix evaluates the diversity-basis distances between all pairs
// of skyline members.
func (sh *Sharded) pairwiseMatrix(sky []skyline.Point, opts QueryOptions) (*diversity.Matrix, error) {
	opts = opts.withDefaults()
	basis := measure.DiversityBasis()
	mat := diversity.NewMatrix(len(sky), len(basis))
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < len(sky); i++ {
		for j := i + 1; j < len(sky); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	var wg sync.WaitGroup
	work := make(chan pair)
	var firstErr error
	var mu sync.Mutex
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				gi, ok1 := sh.Get(sky[p.i].ID)
				gj, ok2 := sh.Get(sky[p.j].ID)
				if !ok1 || !ok2 {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("gdb: skyline member vanished during query")
					}
					mu.Unlock()
					continue
				}
				ps := measure.Compute(gi, gj, opts.Eval)
				for d, m := range basis {
					mat.Set(d, p.i, p.j, m.FromStats(ps))
				}
			}
		}()
	}
	for _, p := range pairs {
		work <- p
	}
	close(work)
	wg.Wait()
	return mat, firstErr
}
