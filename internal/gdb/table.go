package gdb

import (
	"context"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// VectorTable is the GCS evaluation of one query graph against a
// database snapshot, in insertion order: one point per database graph
// for a complete table, only the candidates a pruned scan scored
// otherwise. It is the unit of caching for a query-serving layer —
// skyline answers for the same (query, basis, eval options) derive from
// it without touching the GED/MCS engines again. Top-k and range
// answers never do: they run their own best-first scan (TopKQuery).
type VectorTable struct {
	// Generation is the database generation the table was computed at.
	Generation uint64
	// Basis is the measure basis defining the vector columns.
	Basis []measure.Measure
	// Points holds the evaluated (graph, GCS vector) pairs in insertion
	// order: every database graph for a complete table, only the
	// candidates the scan scored for a pruned one — the skyline plus
	// whatever was scored before the front point that dominates it.
	Points []skyline.Point
	// Work is what the cold build paid: Evaluated == len(Points) and
	// Pruned counts the graphs the filter phase excluded (0 for complete
	// tables), with the memo's share alongside.
	// Delta patches leave it untouched — Deltas counts those.
	Work
	// Inexact counts pairs where a capped engine returned a bound.
	Inexact int
	// Deltas counts the incremental patches applied since the table was
	// cold-built (see DeltaRow / WithInsert / WithDelete): each one
	// advanced Generation by exactly one mutation without re-evaluating
	// the surviving rows.
	Deltas int
	// Duration is the wall-clock time of the evaluation.
	Duration time.Duration
}

// snap is one consistent read of the database: the stored graphs,
// their signatures, their insert sequences (the score-memo keys) and
// the generation they belong to, all under a single lock acquisition.
type snap struct {
	graphs []*graph.Graph
	sigs   []*measure.Signature
	seqs   []uint64
	gen    uint64
}

// snapshot reads the shard.
func (db *DB) snapshot() snap {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sn := snap{
		graphs: make([]*graph.Graph, 0, len(db.names)),
		sigs:   make([]*measure.Signature, 0, len(db.names)),
		seqs:   make([]uint64, 0, len(db.names)),
		gen:    db.gen,
	}
	for _, n := range db.names {
		e := db.graphs[n]
		sn.graphs = append(sn.graphs, e.g)
		sn.sigs = append(sn.sigs, e.sig)
		sn.seqs = append(sn.seqs, e.seq)
	}
	return sn
}

// vectorTable evaluates the GCS vector of the shard's graphs against q
// in parallel, honoring ctx cancellation between pairs. It is one
// shard's part of Sharded.VectorTables, the cache-aware skyline entry
// point: callers memoize the returned tables and answer subsequent
// skyline requests from them (Sharded.MergeSkyline) with zero new pair
// evaluations.
//
// With opts.Prune set (and a Boundable basis), evaluation runs the
// filter-and-scan pipeline of prune.go instead of the full scan:
// signature bounds for every graph, then a best-first scan of the
// candidates those bounds cannot exclude against a running front, which
// scores exactly only the ones no cheaper proof discards. The resulting
// table's skyline is identical to the complete table's. For a foreign
// basis the full scan runs either way.
func (db *DB) vectorTable(ctx context.Context, q *graph.Graph, opts QueryOptions) (*VectorTable, error) {
	opts = opts.withDefaults()
	start := time.Now()
	sn := db.snapshot()
	qsig := measure.NewSignature(q)
	t := &VectorTable{Generation: sn.gen, Basis: opts.Basis}
	// The score memo applies to both builds: a warm memo rebuilds a table
	// with engines running only for graphs inserted since.
	ec := db.newEvalCtx(q, opts)
	if opts.Prune && measure.Boundable(opts.Basis) {
		pts, pruned, inexact, err := evalPruned(ctx, sn, q, qsig, ec, opts)
		if err != nil {
			return nil, err
		}
		t.Pruned = pruned
		t.Points, t.Inexact = pts, inexact
	} else {
		// Stored signatures spare the per-pair histogram/degree rebuild
		// even on the unpruned path; the query's is computed once.
		hints := make([]measure.PairHints, len(sn.graphs))
		for i := range hints {
			hints[i] = measure.PairHints{Sig1: sn.sigs[i], Sig2: qsig}
		}
		pts := make([]skyline.Point, len(sn.graphs))
		inexact, err := evalVectorsCtx(ctx, sn.graphs, sn.seqs, hints, q, opts, ec, pts)
		if err != nil {
			return nil, err
		}
		t.Points, t.Inexact = pts, inexact
		// The whole unpruned scan is tier-2 work: every pair runs the
		// engines (or replays the memo), nothing is bounded away.
		opts.Trace.Observe(StageExact, time.Since(start), len(sn.graphs), 0)
	}
	t.Evaluated = len(t.Points)
	t.Work.Add(ec.work())
	t.Duration = time.Since(start)
	return t, nil
}

// evalVectorsCtx fills pts[i] with the GCS vector of graphs[i] vs q
// using a worker pool, honoring ctx between pairs. hints, when
// non-nil, is indexed like graphs and carries each pair's stored
// signatures and refinement witnesses for the engines to reuse. seqs
// (indexed like graphs) and ec drive the score-memo interplay; a nil
// ec computes every pair fresh.
func evalVectorsCtx(ctx context.Context, graphs []*graph.Graph, seqs []uint64, hints []measure.PairHints, q *graph.Graph, opts QueryOptions, ec *evalCtx, pts []skyline.Point) (int, error) {
	type result struct {
		i       int
		pt      skyline.Point
		inexact bool
	}
	work := make(chan int)
	results := make(chan result)
	done := make(chan struct{})
	defer close(done)

	for w := 0; w < opts.Workers; w++ {
		go func() {
			for i := range work {
				var h measure.PairHints
				if hints != nil {
					h = hints[i]
				}
				stats := ec.computeFull(graphs[i], q, seqs[i], opts.Eval, h)
				r := result{
					i:       i,
					pt:      skyline.Point{ID: graphs[i].Name(), Vec: measure.GCS(stats, opts.Basis)},
					inexact: !stats.GEDExact || !stats.MCSExact,
				}
				select {
				case results <- r:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := range graphs {
			select {
			case work <- i:
			case <-done:
				return
			}
		}
	}()

	inexact := 0
	for filled := 0; filled < len(graphs); filled++ {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case r := <-results:
			pts[r.i] = r.pt
			if r.inexact {
				inexact++
			}
		}
	}
	return inexact, nil
}

// Skyline computes the similarity skyline of the table under alg (nil
// means skyline.SFS). No pair evaluation happens.
func (t *VectorTable) Skyline(alg skyline.Algorithm) []skyline.Point {
	if alg == nil {
		alg = skyline.SFS
	}
	return alg(t.Points)
}
