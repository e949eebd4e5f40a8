package server

import (
	"sort"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/topk"
)

// Delta maintenance: instead of discarding every cached table and
// ranked answer of a mutated shard, a mutation routes its delta to the
// entries it touches and upgrades them in place — generation-advancing
// rather than generation-keyed discard. The provability conditions are
// deliberately narrow:
//
//   - Only lineage-carrying entries qualify: complete tables cached
//     under their full key, and merged ranked answers. Pruned tables
//     hold survivor sets a single row cannot patch.
//   - The entry must be exactly ONE generation behind the mutation on
//     the mutated shard. Anything older has unknown intermediate
//     history.
//   - An insert additionally requires the freshly evaluated row to
//     have been read at exactly the mutation's generation (DeltaRow's
//     observed gen): a later interleaved mutation could have replaced
//     the named graph's value.
//   - A table delete requires Inexact == 0 (per-row inexactness is not
//     recorded, so the surviving count is otherwise underivable); a
//     top-k delete requires the victim NOT to be in the answer (the
//     (k+1)-th item was never stored).
//
// Every condition that fails falls back to today's invalidation, via
// the PruneStale call that ends each routing pass — which also
// guarantees no stale entry survives a mutation whether or not it was
// upgradable. Counted as delta_applied / delta_fallbacks in CacheStats.
//
// Byte-identity: a spliced table row goes through the cold build's own
// per-pair path (DeltaRow), insert rows land at the end of Points
// exactly where the global insertion order puts them, top-k splices
// reproduce topk.Select's deterministic ascending (score, ID) order,
// and range answers stay in insertion order because a new graph is by
// construction last. The interleaved-mutation equivalence tests
// (delta_test.go) enforce this against cold recompute.

// deltaInsert routes the delta of one applied insert: g landed on
// shard, producing generation gen there.
func (s *Server) deltaInsert(g *graph.Graph, shard int, gen uint64) {
	s.maintain(shard, gen, g, "")
}

// deltaDelete routes the delta of one applied delete of name from
// shard, which produced generation gen there.
func (s *Server) deltaDelete(name string, shard int, gen uint64) {
	s.maintain(shard, gen, nil, name)
}

// maintain upgrades every provably patchable cache entry across the
// mutation (shard, gen), then prunes whatever remains stale — the
// fallback-to-invalidation path for everything the proofs do not
// cover. Exactly one of inserted / deleted is set.
func (s *Server) maintain(shard int, gen uint64, inserted *graph.Graph, deleted string) {
	for _, cand := range s.cache.deltaCandidates(shard, gen) {
		if cand.e.shard >= 0 {
			s.upgradeTable(cand, shard, gen, inserted, deleted)
		} else {
			s.upgradeRanked(cand, shard, gen, inserted, deleted)
		}
	}
	s.cache.PruneStale(shard, gen)
}

// upgradeTable patches one cached complete table across the mutation
// and republishes it under the advanced generation's key. Returning
// without promoting leaves the entry for PruneStale (a counted
// fallback).
func (s *Server) upgradeTable(cand deltaCandidate, shard int, gen uint64, inserted *graph.Graph, deleted string) {
	lin := cand.e.lin
	var nt *gdb.VectorTable
	if inserted != nil {
		opts := gdb.QueryOptions{Basis: lin.basis, Eval: lin.eval, QueryHash: lin.qh}
		pt, inexact, got, ok := s.db.Shard(shard).DeltaRow(inserted.Name(), lin.q, opts)
		if !ok || got != gen {
			return // a later mutation interleaved; the row is not provably gen's
		}
		nt = cand.e.table.WithInsert(pt, inexact, gen)
	} else {
		if cand.e.table.Inexact > 0 {
			return // per-row inexactness unknown: the patched count is not derivable
		}
		var ok bool
		nt, ok = cand.e.table.WithDelete(deleted, gen)
		if !ok {
			return
		}
	}
	newKey := CacheKey(shard, gen, lin.qh, lin.basis, lin.eval)
	s.cache.promote(cand.key, newKey, &cacheEntry{shard: shard, table: nt, lin: lin})
}

// upgradeRanked patches one cached merged ranked answer across the
// mutation. Top-k inserts splice into topk.Select's deterministic
// ascending (score, ID) order against the stored k-th threshold; range
// inserts append on a single membership test (a new graph is last in
// insertion order); deletes remove the victim (range) or prove the
// answer unchanged (top-k, victim absent).
func (s *Server) upgradeRanked(cand deltaCandidate, shard int, gen uint64, inserted *graph.Graph, deleted string) {
	r := cand.e.ranked
	lin := r.lin
	items, inexact := r.items, r.inexact
	if inserted != nil {
		opts := gdb.QueryOptions{Eval: lin.eval, QueryHash: lin.qh}
		score, inex, got, ok := s.db.Shard(shard).DeltaScore(inserted.Name(), lin.q, lin.m, opts)
		if !ok || got != gen {
			return
		}
		name := inserted.Name()
		if lin.kind == "topk" {
			k := int(lin.arg)
			pos := sort.Search(len(items), func(i int) bool {
				return items[i].Score > score || (items[i].Score == score && items[i].ID > name)
			})
			if pos < len(items) || len(items) < k {
				next := make([]topk.Item, 0, len(items)+1)
				next = append(next, items[:pos]...)
				next = append(next, topk.Item{ID: name, Score: score})
				next = append(next, items[pos:]...)
				if len(next) > k {
					next = next[:k]
				}
				items = next
				if inex {
					inexact++
				}
			}
			// pos == len(items) with a full answer: strictly worse than
			// the stored k-th, provably unchanged.
		} else if score <= lin.arg {
			next := make([]topk.Item, 0, len(items)+1)
			next = append(next, items...)
			next = append(next, topk.Item{ID: name, Score: score})
			items = next
			if inex {
				inexact++
			}
		}
	} else {
		idx := -1
		for i := range items {
			if items[i].ID == deleted {
				idx = i
				break
			}
		}
		if lin.kind == "topk" {
			if idx >= 0 || len(items) < int(lin.arg) {
				// The victim was in the answer (or the answer held every
				// graph, where it must have been): the (k+1)-th item was
				// never stored, so the successor answer is not derivable.
				return
			}
		} else if idx >= 0 {
			next := make([]topk.Item, 0, len(items)-1)
			next = append(next, items[:idx]...)
			next = append(next, items[idx+1:]...)
			items = next
		}
	}
	gens := make([]uint64, len(cand.e.gens))
	copy(gens, cand.e.gens)
	gens[shard] = gen
	newKey := RankedKey(lin.kind, gens, lin.qh, lin.m, lin.arg, lin.eval)
	s.cache.promote(cand.key, newKey, &cacheEntry{
		shard:  -1,
		gens:   gens,
		ranked: &rankedEntry{items: items, inexact: inexact, deltas: r.deltas + 1, lin: lin},
	})
}
