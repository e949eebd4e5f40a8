package server

import (
	"math"
	"sort"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// Delta maintenance: instead of discarding every cached answer a
// mutation touches, the mutation routes its delta to those entries and
// upgrades them in place: the entry stays under its key and advances
// the generation it records. One cache pass (Cache.sweep) per mutation
// drops what no proof covers and collects the rest; each upgrade then
// runs outside the cache lock and is settled under the same key
// (Cache.settle). The provability conditions:
//
//   - Only lineage-carrying entries qualify: every pruned skyline answer
//     and every ranked answer. A complete skyline answer ("all")
//     carries none: any mutation drops it, counted as a fallback, and
//     the next "all" request rebuilds the table.
//   - The entry must be exactly ONE generation behind the mutation.
//     Anything older has unknown intermediate history. Two mutations
//     maintained concurrently therefore upgrade an entry only in
//     generation order: the later sweep drops what the earlier one has
//     not settled yet.
//   - An insert's upgrade settles the new graph (DeltaRow, DeltaScore),
//     which must have read it at exactly the mutation's generation: a
//     later interleaved mutation could have replaced the named graph's
//     value.
//
// Per entry kind:
//
//   - A pruned skyline answer is one table holding the kept set K of
//     its scan, which contains the skyline of the whole database.
//     Strict dominance is transitive, so every graph outside K is
//     dominated by a member of K and skyline(database) = skyline(K); any
//     update that keeps K inside the database and the new skyline
//     inside K keeps the table exact. An insert is settled by the
//     scan's own settle step against a front seeded with K (DeltaRow):
//     it is discarded only on a proof that a row of K strictly
//     dominates its exact vector — often before any engine runs — and
//     then only the generation advances; otherwise its exact row is
//     appended. A delete of a graph outside K only advances the
//     generation: the front point that discarded it is in K. A delete
//     of a kept row that another kept row strictly dominates drops the
//     row (removing a non-maximal element leaves the maximal set
//     unchanged). A delete of a front member falls back.
//   - A ranked answer settles the inserted graph by the ranked scan's
//     own settle step at the answer's threshold (DeltaScore): the k-th
//     score of a full top-k answer, the radius of a range answer, +Inf
//     for a top-k answer holding fewer than k items. A graph proved
//     above the threshold — often by its bound alone, with no engine
//     run — leaves the answer unchanged; the rest are spliced or
//     appended with their exact score. A top-k delete requires the
//     victim NOT to be in the answer (the (k+1)-th item was never
//     stored).
//
// Every condition that fails falls back to invalidation: the whole
// entry is dropped, by the sweep or by its settle, so no entry behind
// the mutation survives it whether or not it was upgradable; its next
// request runs a fresh scan. Counted as delta_applied /
// delta_fallbacks in CacheStats.
//
// Byte-identity: a spliced table row or score comes from the cold
// scans' own settle step (DeltaRow, DeltaScore), and rows stay in
// insertion order — a cold table lists them in snapshot order, and
// upgrades land in generation order, so an appended row is the newest
// graph. Top-k splices reproduce topk.Select's deterministic ascending
// (score, ID) order, and range answers stay in insertion order for the
// same reason table rows do. The interleaved-mutation equivalence tests
// (delta_test.go) enforce this against cold recompute.

// deltaInsert routes the delta of one applied insert of g, which
// produced generation gen.
func (s *Server) deltaInsert(g *graph.Graph, gen uint64) {
	s.maintain(gen, g, "")
}

// deltaDelete routes the delta of one applied delete of name, which
// produced generation gen.
func (s *Server) deltaDelete(name string, gen uint64) {
	s.maintain(gen, nil, name)
}

// maintain settles the cache across the mutation that produced gen: one
// sweep drops what no proof covers, then every collected entry is
// upgraded in place or, when its proof fails, dropped. Exactly one of
// inserted / deleted is set.
func (s *Server) maintain(gen uint64, inserted *graph.Graph, deleted string) {
	for _, cand := range s.cache.sweep(gen) {
		var next *cacheEntry
		if cand.key.path == "pruned" {
			next = s.upgradeTable(cand, gen, inserted, deleted)
		} else {
			next = s.upgradeRanked(cand, gen, inserted, deleted)
		}
		s.cache.settle(cand, next)
	}
}

// advanced returns a copy of e exact at gen, counting one more delta;
// the caller swaps in what the mutation changed.
func (e *cacheEntry) advanced(gen uint64) *cacheEntry {
	next := *e
	next.gen = gen
	next.deltas++
	return &next
}

// upgradeTable derives cached pruned skyline answer cand's successor
// across the mutation, or returns nil when no proof holds.
func (s *Server) upgradeTable(cand deltaCandidate, gen uint64, inserted *graph.Graph, deleted string) *cacheEntry {
	var nt *gdb.VectorTable
	if inserted != nil {
		nt = s.tableInsert(cand, gen, inserted.Name())
	} else {
		nt = tableDelete(cand.e.table, gen, deleted)
	}
	if nt == nil {
		return nil
	}
	return tableEntry(nt, cand.e.lin)
}

// tableInsert derives cand's pruned table's successor across the
// insert of name, which produced generation gen, or returns nil when no
// proof holds.
func (s *Server) tableInsert(cand deltaCandidate, gen uint64, name string) *gdb.VectorTable {
	t, lin := cand.e.table, cand.e.lin
	opts := gdb.QueryOptions{Basis: lin.basis}
	pt, kept, got, ok := s.db.DeltaRow(name, lin.q, lin.qsig, t.Points, opts)
	if !ok || got != gen {
		return nil // a later mutation interleaved; the row is not provably gen's
	}
	if !kept {
		return t.WithGeneration(gen)
	}
	return t.WithInsert(pt, gen)
}

// tableDelete derives pruned table t's successor across the delete of
// name, which produced generation gen, or returns nil when no proof
// holds.
func tableDelete(t *gdb.VectorTable, gen uint64, name string) *gdb.VectorTable {
	var victim []float64
	for _, p := range t.Points {
		if p.ID == name {
			victim = p.Vec
			break
		}
	}
	switch {
	case victim == nil:
		return t.WithGeneration(gen) // never kept: not on the skyline
	case !dominated(t.Points, victim):
		return nil // a front member, whose successors were never kept
	}
	nt, _ := t.WithDelete(name, gen)
	return nt
}

// dominated reports whether some row strictly dominates v. No vector
// strictly dominates itself, so v may be one of the rows.
func dominated(rows []skyline.Point, v []float64) bool {
	for _, p := range rows {
		if skyline.Dominates(p.Vec, v) {
			return true
		}
	}
	return false
}

// upgradeRanked derives cached ranked answer cand's successor
// across the mutation, or returns nil when no proof holds. An insert
// DeltaScore proves above a full top-k answer's k-th score, or a
// range answer's radius, leaves the answer unchanged. Other top-k
// inserts splice into topk.Select's deterministic ascending (score,
// ID) order; range inserts append (a new graph is last in insertion
// order); deletes remove the victim (range) or prove the answer
// unchanged (top-k, victim absent).
func (s *Server) upgradeRanked(cand deltaCandidate, gen uint64, inserted *graph.Graph, deleted string) *cacheEntry {
	e, key, lin := cand.e, cand.key, cand.e.lin
	items := e.items
	if inserted != nil {
		name := inserted.Name()
		th := key.arg // a range answer's radius
		if key.path == "topk" {
			th = math.Inf(1)
			if len(items) >= int(key.arg) {
				th = items[len(items)-1].Score
			}
		}
		score, in, got, ok := s.db.DeltaScore(name, lin.q, lin.qsig, lin.m, th, gdb.QueryOptions{})
		switch {
		case !ok || got != gen:
			return nil
		case !in:
			return e.advanced(gen)
		}
		if key.path == "topk" {
			k := int(key.arg)
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
			}
			// pos == len(items) with a full answer: a tie with the
			// stored k-th that loses on ID, provably unchanged.
		} else {
			next := make([]topk.Item, 0, len(items)+1)
			next = append(next, items...)
			next = append(next, topk.Item{ID: name, Score: score})
			items = next
		}
	} else {
		idx := -1
		for i := range items {
			if items[i].ID == deleted {
				idx = i
				break
			}
		}
		if key.path == "topk" {
			if idx >= 0 || len(items) < int(key.arg) {
				// The victim was in the answer (or the answer held every
				// graph, where it must have been): the (k+1)-th item was
				// never stored, so the successor answer is not derivable.
				return nil
			}
		} else if idx >= 0 {
			next := make([]topk.Item, 0, len(items)-1)
			next = append(next, items[:idx]...)
			next = append(next, items[idx+1:]...)
			items = next
		}
	}
	next := e.advanced(gen)
	next.items = items
	return next
}
