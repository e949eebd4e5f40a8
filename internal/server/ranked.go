package server

import (
	"context"

	"skygraph/internal/gdb"
	"skygraph/internal/measure"
)

// Ranked serving. /query/topk and /query/range call the library's
// TopKQuery / RangeQuery — the best-first bound-index scan of
// gdb/ranked.go, one scan of the database against one threshold —
// and never read a table: a cached table, complete or pruned, answers
// skyline requests only. The answer is cached under its own key
// path ("topk" or "range"); it never populates, shadows, or satisfies a
// skyline key.

// buildRanked runs the ranked scan of a topk/range request that read
// generation gen.
func (s *Server) buildRanked(ctx context.Context, res resolved, gen uint64) (*cacheEntry, bool, error) {
	opts := gdb.QueryOptions{Eval: res.opts.Eval, Trace: res.opts.Trace}
	var r gdb.TopKResult
	var err error
	if res.key.path == "topk" {
		r, err = s.db.TopKQuery(ctx, res.q, res.m, int(res.key.arg), opts)
	} else {
		r, err = s.db.RangeQuery(ctx, res.q, res.m, res.key.arg, opts)
	}
	if err != nil {
		return nil, false, err
	}
	// The lineage makes the answer delta-maintainable: a later single
	// mutation can splice, append or prove it unchanged instead of
	// invalidating it (see delta.go).
	e := &cacheEntry{
		gen:     gen,
		items:   r.Items,
		inexact: r.Stats.Inexact,
		work:    r.Stats.Work,
		lin:     &lineage{q: res.q, qsig: measure.NewSignature(res.q), m: res.m},
	}
	// Cache only when no mutation raced the evaluation: the generation
	// is monotone, so unchanged before/after means the snapshot the scan
	// used is the recorded generation's.
	return e, gen == s.db.Generation(), nil
}
