package gdb

import (
	"context"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// SkylineQueryContext is SkylineQuery with cooperative cancellation: the
// evaluation of pair vectors — the expensive part, each pair costing an
// exact GED and MCS — checks ctx between pairs and aborts early, returning
// ctx.Err(). Pairs already finished are discarded. With opts.Prune the
// filter-and-refine pipeline (see prune.go) skips exact evaluation of
// graphs the bounds prove dominated; the skyline is unchanged.
func (db *DB) SkylineQueryContext(ctx context.Context, q *graph.Graph, opts QueryOptions) (SkylineResult, error) {
	opts = opts.withDefaults()
	start := time.Now()
	t, err := db.VectorTable(ctx, q, opts)
	if err != nil {
		return SkylineResult{}, err
	}
	return SkylineResult{
		Skyline: t.Skyline(opts.Algorithm),
		All:     t.Points,
		Stats:   QueryStats{Work: t.Work, Inexact: t.Inexact, Duration: time.Since(start)},
	}, nil
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
