package server

import (
	"context"
	"time"

	"skygraph/internal/gdb"
	"skygraph/internal/topk"
)

// Pruned ranked serving. /query/topk and /query/range default to the
// best-first bound-index evaluation of gdb/ranked.go instead of
// building full vector tables: per shard, a complete table already in
// the cache is served as-is (its rows seed the shared threshold with
// zero pair evaluations), and only the remaining shards scan — all
// against ONE cross-shard threshold. The merged answer is cached under
// its own RankedKey variant; it never populates, shadows, or satisfies
// a full-table key, so a later skyline-with-table or unpruned request
// still builds (and caches) the real table.

// rankedAnswer is the outcome of one pruned ranked evaluation, plus
// what it cost.
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

// rankedArg is the scalar the answer depends on: k for top-k, the
// radius for range.
func rankedArg(kind string, k int, radius float64) float64 {
	if kind == "topk" {
		return float64(k)
	}
	return radius
}

// ranked answers a pruned topk/range request end to end: ranked-answer
// cache, flight coalescing, then a leader evaluation. Mirrors
// shardTable's loop — a follower whose leader fails retries under its
// own deadline.
func (s *Server) ranked(ctx context.Context, kind string, res resolved, k int, radius float64) (rankedAnswer, error) {
	n := s.db.NumShards()
	for {
		gens := s.db.Generations()
		key := RankedKey(kind, gens, res.qh, res.m, rankedArg(kind, k, radius), res.opts.Eval)
		if e, ok := s.cache.GetRanked(key); ok {
			return rankedAnswer{items: e.items, inexact: e.inexact, deltas: e.deltas, shardHits: n, hit: true}, nil
		}
		s.flightMu.Lock()
		leader, inflight := s.flight[key]
		if !inflight {
			c := &flightCall{done: make(chan struct{})}
			s.flight[key] = c
			s.flightMu.Unlock()
			return s.leadRanked(ctx, kind, res, k, radius, gens, key, c)
		}
		s.flightMu.Unlock()
		select {
		case <-leader.done:
			if leader.err == nil {
				ra := *leader.ra
				ra.work = gdb.Work{}
				ra.shardHits, ra.hit = n, true
				return ra, nil
			}
			// Leader failed for its own reasons; try again ourselves.
		case <-ctx.Done():
			return rankedAnswer{}, ctx.Err()
		}
	}
}

// leadRanked evaluates the merged ranked answer as the flight leader
// for key, publishing the result to followers via c.
func (s *Server) leadRanked(ctx context.Context, kind string, res resolved, k int, radius float64, gens []uint64, key string, c *flightCall) (ra rankedAnswer, err error) {
	defer func() {
		c.ra, c.err = &ra, err
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(c.done)
	}()

	// A previous leader may have published between our cache miss and
	// flight takeover.
	if e, ok := s.cache.getRankedRecheck(key); ok {
		return rankedAnswer{items: e.items, inexact: e.inexact, deltas: e.deltas, shardHits: s.db.NumShards(), hit: true}, nil
	}

	var run *gdb.Ranked
	if kind == "topk" {
		run = gdb.NewRankedTopK(res.m, k)
	} else {
		run = gdb.NewRankedRange(res.m, radius)
	}

	// Shards whose complete table is cached answer from it — their best
	// rows seed the shared threshold before any scan starts, and a
	// fully warmed cache answers with zero pair evaluations.
	var cold []int
	for i := 0; i < s.db.NumShards(); i++ {
		fullKey := CacheKey(i, gens[i], res.qh, res.basis, res.opts.Eval)
		t, ok := s.cache.getRecheck(fullKey)
		if !ok {
			cold = append(cold, i)
			continue
		}
		var items []topk.Item
		var terr error
		if kind == "topk" {
			items, terr = t.TopK(res.m, k)
		} else {
			items, terr = t.Range(res.m, radius)
		}
		if terr != nil {
			// Unreachable: full keys only ever hold complete tables
			// whose basis contains the ranking measure.
			cold = append(cold, i)
			continue
		}
		run.Offer(items)
		ra.shardHits++
	}

	if len(cold) > 0 {
		// One inflight slot per scanning shard, mirroring the table
		// path's accounting of evaluation capacity.
		if s.sem != nil {
			for acquired := 0; acquired < len(cold); acquired++ {
				select {
				case s.sem <- struct{}{}:
				default:
					for ; acquired > 0; acquired-- {
						<-s.sem
					}
					s.rejected.Add(1)
					return rankedAnswer{}, errTooBusy
				}
			}
			defer func() {
				for range cold {
					<-s.sem
				}
			}()
		}
		opts := gdb.QueryOptions{Eval: res.opts.Eval, Workers: s.cfg.Workers, Trace: res.opts.Trace, QueryHash: res.qh}
		st, err := s.db.EvalRanked(ctx, run, res.q, opts, cold)
		if err != nil {
			return rankedAnswer{}, err
		}
		ra.work, ra.inexact = st.Work, st.Inexact
	}

	var mstart time.Time
	if res.opts.Trace != nil {
		mstart = time.Now()
	}
	ra.items = s.db.RankedItems(run)
	res.opts.Trace.Observe(gdb.StageMerge, time.Since(mstart), len(ra.items), 0)
	s.work.add(ra.work)
	// Cache only when no mutation raced the evaluation: generations are
	// monotone, so unchanged before/after means every snapshot the scan
	// used matches the keyed generations.
	if gensEqual(gens, s.db.Generations()) {
		s.cache.PutRanked(key, gens, &rankedEntry{
			items:   ra.items,
			inexact: ra.inexact,
			// The lineage makes the answer delta-maintainable: a later
			// single mutation can splice, append or prove it unchanged
			// instead of invalidating it (see delta.go).
			lin: &rankedLineage{
				kind: kind,
				q:    res.q,
				qh:   res.qh,
				m:    res.m,
				arg:  rankedArg(kind, k, radius),
				eval: res.opts.Eval,
			},
		})
	}
	return ra, nil
}

func gensEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rankedStats assembles the wire stats for one pruned ranked answer.
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
