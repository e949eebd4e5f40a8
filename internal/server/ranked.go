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

// buildRanked runs the ranked scan of a topk/range request. The entry
// records the generation of the snapshot the scan read, as a table
// does.
func (s *Server) buildRanked(ctx context.Context, res resolved) (*cacheEntry, error) {
	opts := gdb.QueryOptions{Trace: res.opts.Trace}
	var r gdb.TopKResult
	var err error
	if res.key.path == "topk" {
		r, err = s.db.TopKQuery(ctx, res.q, res.m, int(res.key.arg), opts)
	} else {
		r, err = s.db.RangeQuery(ctx, res.q, res.m, res.key.arg, opts)
	}
	if err != nil {
		return nil, err
	}
	// The lineage makes the answer delta-maintainable: a later single
	// mutation can splice, append or prove it unchanged instead of
	// invalidating it (see delta.go).
	return &cacheEntry{
		gen:   r.Generation,
		items: r.Items,
		work:  r.Stats.Work,
		lin:   &lineage{q: res.q, qsig: measure.NewSignature(res.q), m: res.m},
	}, nil
}
