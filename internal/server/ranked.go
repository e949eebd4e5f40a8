package server

import (
	"context"
	"slices"
	"time"

	"skygraph/internal/gdb"
	"skygraph/internal/topk"
)

// Ranked serving. /query/topk and /query/range call the library's
// TopKQuery / RangeQuery — the best-first bound-index scan of
// gdb/ranked.go over every shard against ONE cross-shard threshold —
// and never read a table: a cached table, complete or pruned, answers
// skyline requests only. The merged answer is cached under its own key
// path ("topk" or "range"); it never populates, shadows, or satisfies a
// table key. What a ranked scan can still reuse is the score memo, which
// table builds fill.

// rankedAnswer is the outcome of one ranked evaluation, plus what it
// cost.
type rankedAnswer struct {
	items   []topk.Item
	inexact int
	// work is what this request's fresh scan cost (the zero Work when the
	// answer came from the ranked cache).
	work gdb.Work
	// hit reports the answer came from the ranked cache (or a coalesced
	// leader).
	hit bool
	// deltas counts the in-place delta upgrades the served cached
	// answer has absorbed since it was cold-built (0 for fresh
	// evaluations).
	deltas int
}

// ranked answers a topk/range request through coalesce: ranked-answer
// cache, flight, then the leader's scan.
func (s *Server) ranked(ctx context.Context, kind string, res resolved, req *QueryRequest) (rankedAnswer, error) {
	gens := s.db.Generations()
	// arg is the scalar the answer depends on: k for top-k, the radius
	// for range.
	arg := res.key.arg
	var fresh rankedAnswer // filled only when this request leads
	e, hit, err := s.coalesce(ctx, res.key, gens, func() (*cacheEntry, bool, error) {
		opts := gdb.QueryOptions{Eval: res.opts.Eval, Trace: res.opts.Trace, QueryHash: res.qh}
		var r gdb.TopKResult
		var err error
		if kind == "topk" {
			r, err = s.db.TopKQuery(ctx, res.q, res.m, req.K, opts)
		} else {
			r, err = s.db.RangeQuery(ctx, res.q, res.m, arg, opts)
		}
		if err != nil {
			return nil, false, err
		}
		fresh = rankedAnswer{items: r.Items, inexact: r.Stats.Inexact, work: r.Stats.Work}
		s.work.add(fresh.work)
		e := &cacheEntry{shard: -1, gens: gens, ranked: &rankedEntry{
			items:   fresh.items,
			inexact: fresh.inexact,
			// The lineage makes the answer delta-maintainable: a later
			// single mutation can splice, append or prove it unchanged
			// instead of invalidating it (see delta.go).
			lin: &rankedLineage{kind: kind, q: res.q, qsig: res.qsig, qh: res.qh, m: res.m, arg: arg, eval: res.opts.Eval},
		}}
		// Cache only when no mutation raced the evaluation: generations
		// are monotone, so unchanged before/after means every snapshot
		// the scan used matches the recorded generations.
		return e, slices.Equal(gens, s.db.Generations()), nil
	})
	if err != nil {
		return rankedAnswer{}, err
	}
	if hit {
		r := e.ranked
		return rankedAnswer{items: r.items, inexact: r.inexact, deltas: r.deltas, hit: true}, nil
	}
	return fresh, nil
}

// rankedStats assembles the wire stats for one ranked answer: a ranked
// cache hit counts every shard as hit, a fresh scan none.
func (s *Server) rankedStats(ra rankedAnswer, start time.Time) QueryStats {
	n := s.db.NumShards()
	qs := QueryStats{
		Work:         ra.work,
		Inexact:      ra.inexact,
		DeltaPatched: ra.deltas,
		CacheHit:     ra.hit,
		Shards:       n,
		DurationMS:   float64(time.Since(start).Microseconds()) / 1000,
	}
	if ra.hit {
		qs.ShardHits = n
	}
	return qs
}
