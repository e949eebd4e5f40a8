package server

import (
	"context"
	"slices"
	"time"

	"skygraph/internal/gdb"
	"skygraph/internal/topk"
)

// Ranked serving. /query/topk and /query/range always run the
// best-first bound-index evaluation of gdb/ranked.go instead of building
// full vector tables: per shard, a complete table already in the cache
// is served as-is (its rows seed the shared threshold with zero pair
// evaluations), and only the remaining shards scan — all against ONE
// cross-shard threshold. The merged answer is cached under its own
// RankedKey variant; it never populates, shadows, or satisfies a
// full-table key, so a later "all" skyline request still builds (and
// caches) the real table.

// rankedAnswer is the outcome of one ranked evaluation, plus what it
// cost.
type rankedAnswer struct {
	items   []topk.Item
	inexact int
	// work is what this request's fresh shard scans cost (the zero Work
	// when the whole answer came from a cache).
	work gdb.Work
	// shardHits counts shards served from cached complete tables; hit
	// reports the whole merged answer came from the ranked cache (or a
	// coalesced leader).
	shardHits int
	hit       bool
	// deltas counts the in-place delta upgrades the served cached
	// answer has absorbed since it was cold-built (0 for fresh
	// evaluations).
	deltas int
}

// ranked answers a topk/range request through coalesce: ranked-answer
// cache, flight, then the leader's evaluation.
func (s *Server) ranked(ctx context.Context, kind string, res resolved, req *QueryRequest) (rankedAnswer, error) {
	n := s.db.NumShards()
	gens := s.db.Generations()
	// arg is the scalar the answer depends on: k for top-k, the radius
	// for range.
	arg := float64(req.K)
	if kind == "range" {
		arg = *req.Radius
	}
	key := RankedKey(kind, gens, res.qh, res.m, arg, res.opts.Eval)
	var fresh rankedAnswer // filled only when this request leads
	e, hit, err := s.coalesce(ctx, key, "", func() (*cacheEntry, string, error) {
		var run *gdb.Ranked
		if kind == "topk" {
			run = gdb.NewRankedTopK(res.m, req.K)
		} else {
			run = gdb.NewRankedRange(res.m, arg)
		}
		// Shards whose complete table is cached answer from it — their
		// best rows seed the shared threshold before any scan starts, and
		// a fully warmed cache answers with zero pair evaluations.
		var cold []int
		for i := 0; i < n; i++ {
			te, ok := s.cache.lookup(CacheKey(i, gens[i], res.qh, res.basis, res.opts.Eval), true)
			if !ok {
				cold = append(cold, i)
				continue
			}
			var items []topk.Item
			var terr error
			if kind == "topk" {
				items, terr = te.table.TopK(res.m, req.K)
			} else {
				items, terr = te.table.Range(res.m, arg)
			}
			if terr != nil {
				// Unreachable: full keys only ever hold complete tables
				// whose basis contains the ranking measure.
				cold = append(cold, i)
				continue
			}
			run.Offer(items)
			fresh.shardHits++
		}
		if len(cold) > 0 {
			opts := gdb.QueryOptions{Eval: res.opts.Eval, Trace: res.opts.Trace, QueryHash: res.qh}
			st, err := s.db.EvalRanked(ctx, run, res.q, opts, cold)
			if err != nil {
				return nil, "", err
			}
			fresh.work, fresh.inexact = st.Work, st.Inexact
		}
		mstart := time.Now()
		fresh.items = s.db.RankedItems(run)
		res.opts.Trace.Observe(gdb.StageMerge, time.Since(mstart), len(fresh.items), 0)
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
		// the scan used matches the keyed generations.
		if !slices.Equal(gens, s.db.Generations()) {
			return e, "", nil
		}
		return e, key, nil
	})
	if err != nil {
		return rankedAnswer{}, err
	}
	if hit {
		r := e.ranked
		return rankedAnswer{items: r.items, inexact: r.inexact, deltas: r.deltas, shardHits: n, hit: true}, nil
	}
	return fresh, nil
}

// rankedStats assembles the wire stats for one ranked answer.
func (s *Server) rankedStats(ra rankedAnswer, start time.Time) QueryStats {
	return QueryStats{
		Work:         ra.work,
		Inexact:      ra.inexact,
		DeltaPatched: ra.deltas,
		CacheHit:     ra.hit || ra.shardHits == s.db.NumShards(),
		Shards:       s.db.NumShards(),
		ShardHits:    ra.shardHits,
		DurationMS:   float64(time.Since(start).Microseconds()) / 1000,
	}
}
