package server

import (
	"strconv"
	"sync/atomic"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/lru"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

// Cache is a bounded LRU of per-shard query vector tables plus merged
// ranked answers, layered on the shared internal/lru core (the same
// machinery behind gdb's cross-query score memo). Three key namespaces,
// one per request path, and each request reads only its own: complete
// tables ("all" skylines, CacheKey), pruned tables (plain skylines,
// prunedKey) and ranked answers (top-k and range, RankedKey). A table
// key binds a table to the exact inputs that produced it — shard index,
// that shard's generation, canonical query-graph hash, measure basis
// and engine options — so a lookup can only ever return a table that
// answers the current request exactly. Because the owning shard's
// generation participates in the key, a mutation retires exactly that
// shard's entries: each is either upgraded in place under the advanced
// key (delta.go) or becomes unreachable and is dropped eagerly by
// PruneStale; tables of the other shards stay live. Ranked answers
// instead carry every shard's generation — the merged result spans the
// whole database, so any mutation retires them.
//
// Counters are atomics, read without the LRU lock: /stats can hammer
// the cache while queries run without contending on (or racing with)
// the hot lookup path.
type Cache struct {
	lru *lru.Cache[*cacheEntry]

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	deltaApplied  atomic.Uint64
	deltaFallback atomic.Uint64
}

// cacheEntry is one cached value: a per-shard vector table (shard >= 0,
// invalidated when that shard's generation moves past the table's), or
// a whole-database ranked answer (shard == -1, bound to EVERY shard's
// generation via gens — any mutation anywhere invalidates it). lin,
// when set, is the table's maintenance lineage: a later mutation of the
// owning shard can upgrade the entry in place (Server.maintain) instead
// of invalidating it. Pruned tables carry one, complete tables none.
type cacheEntry struct {
	shard  int
	table  *gdb.VectorTable
	gens   []uint64
	ranked *rankedEntry
	lin    *tableLineage
}

// tableLineage is everything needed to re-derive a table's key and
// evaluate a single delta row through the exact code path the cold
// build used: the query graph, its signature and canonical hash (both
// computed once per request), the basis and the engine budgets. Only
// pruned tables carry one; delta.go holds the proofs that maintain
// them.
type tableLineage struct {
	q     *graph.Graph
	qsig  *measure.Signature
	qh    string
	basis []measure.Measure
	eval  measure.Options
}

// rankedEntry is a cached ranked answer: the merged items of one
// (kind, measure, k-or-radius) query over all shards. It lives in its
// own key namespace (RankedKey) so it can never shadow — or be returned
// for — a table lookup. lin carries the maintenance lineage;
// deltas counts in-place upgrades since the answer was cold-built.
type rankedEntry struct {
	items   []topk.Item
	inexact int
	deltas  int
	lin     *rankedLineage
}

// rankedLineage mirrors tableLineage for merged ranked answers.
type rankedLineage struct {
	kind string // "topk" or "range"
	q    *graph.Graph
	qsig *measure.Signature
	qh   string
	m    measure.Measure
	arg  float64 // k for topk, radius for range
	eval measure.Options
}

// stale reports whether the entry was computed before generation gen of
// the given shard.
func (e *cacheEntry) stale(shard int, gen uint64) bool {
	if e.shard >= 0 {
		return e.shard == shard && e.table.Generation < gen
	}
	return shard < len(e.gens) && e.gens[shard] < gen
}

// NewCache returns an LRU holding at most capacity tables. Capacity < 1
// disables caching (every lookup misses, put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{lru: lru.New[*cacheEntry](capacity)}
}

// CacheKey renders the canonical cache key for one shard's vector table:
// "s<shard>|g<generation>|q<query hash>|b<basis names, comma-joined>|
// <eval.Key()>". Keys are rendered on every lookup and every delta
// promotion, so they are appended into one buffer rather than formatted.
func CacheKey(shard int, generation uint64, queryHash string, basis []measure.Measure, eval measure.Options) string {
	b := make([]byte, 0, 48+len(queryHash))
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(shard), 10)
	b = append(b, "|g"...)
	b = strconv.AppendUint(b, generation, 10)
	b = append(b, "|q"...)
	b = append(b, queryHash...)
	b = append(b, "|b"...)
	for i, m := range basis {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m.Name()...)
	}
	b = append(b, '|')
	return string(eval.AppendKey(b))
}

// prunedKey derives the key of the pruned table variant from a
// complete-table key. Pruned tables hold only the candidates their scan
// kept, so they answer plain skyline requests exactly but never an
// "all" request; and an "all" request's complete table never answers a
// plain one — each request reads the namespace its own path builds.
func prunedKey(full string) string { return full + "|pruned" }

// RankedKey renders the cache key of a ranked answer: the merged
// result of one (kind, measure, k/radius) query, bound to the canonical
// query hash, the engine budgets and every shard's generation. The
// basis does not participate — a ranked answer depends only on its
// ranking measure. The "r|" namespace keeps ranked answers from ever
// shadowing a table key. The rendering is "r|<kind>|g<generations,
// comma-joined>|q<query hash>|m<measure>|a<arg, shortest 'g' form>|
// <eval.Key()>", built in one buffer like CacheKey's.
func RankedKey(kind string, gens []uint64, queryHash string, m measure.Measure, arg float64, eval measure.Options) string {
	b := make([]byte, 0, 64+len(queryHash)+4*len(gens))
	b = append(b, "r|"...)
	b = append(b, kind...)
	b = append(b, "|g"...)
	for i, g := range gens {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, g, 10)
	}
	b = append(b, "|q"...)
	b = append(b, queryHash...)
	b = append(b, "|m"...)
	b = append(b, m.Name()...)
	b = append(b, "|a"...)
	b = strconv.AppendFloat(b, arg, 'g', -1, 64)
	b = append(b, '|')
	return string(eval.AppendKey(b))
}

// lookup returns the entry cached under key, marking it most recently
// used. Presence counts as a hit; absence counts as a miss unless quiet
// — a re-check of a key whose miss was already counted.
func (c *Cache) lookup(key string, quiet bool) (*cacheEntry, bool) {
	e, ok := c.lru.Get(key)
	if !ok {
		if !quiet {
			c.misses.Add(1)
		}
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// contains reports whether key is cached, without touching recency or
// the hit/miss counters — a planning peek, not a lookup.
func (c *Cache) contains(key string) bool { return c.lru.Contains(key) }

// put stores e under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) put(key string, e *cacheEntry) {
	c.evictions.Add(uint64(c.lru.Put(key, e)))
}

// deltaCandidate is one cached entry a mutation may be able to upgrade
// in place, paired with the key it currently lives under.
type deltaCandidate struct {
	key string
	e   *cacheEntry
}

// deltaCandidates collects the entries a single mutation of shard —
// the one that produced generation gen — could provably upgrade:
// lineage-carrying (pruned) tables of that shard exactly one generation
// behind, and lineage-carrying ranked answers whose recorded generation
// for that shard is exactly gen-1. Everything else (complete tables,
// entries further behind, foreign shards) is left for PruneStale.
// Collection never drops anything.
func (c *Cache) deltaCandidates(shard int, gen uint64) []deltaCandidate {
	var out []deltaCandidate
	c.lru.PruneFunc(func(key string, e *cacheEntry) bool {
		switch {
		case e.shard >= 0:
			if e.shard == shard && e.lin != nil && e.table.Generation == gen-1 {
				out = append(out, deltaCandidate{key: key, e: e})
			}
		case e.ranked != nil:
			if e.ranked.lin != nil && shard < len(e.gens) && e.gens[shard] == gen-1 {
				out = append(out, deltaCandidate{key: key, e: e})
			}
		}
		return false
	})
	return out
}

// promote publishes an upgraded entry under its new generation-bearing
// key and retires the old key, counting one applied delta. Put-then-
// Remove ordering means a concurrent reader always finds at least one
// of the two keys; a racing PruneStale that drops the old key first
// makes the Remove a no-op.
func (c *Cache) promote(oldKey, newKey string, e *cacheEntry) {
	c.put(newKey, e)
	c.lru.Remove(oldKey)
	c.deltaApplied.Add(1)
}

// PruneStale eagerly drops every entry of shard computed before
// generation gen, returning how many were dropped. Correctness never
// depends on this — stale keys are unreachable — but pruning on
// mutation frees their memory immediately instead of waiting for LRU
// pressure. Generations only increase, so the strict < keeps entries
// newer than the caller's (possibly stale) generation read, and other
// shards' entries are never touched: an entry a concurrent delta
// upgrade just republished at gen (or later) can never be dropped by a
// prune carrying an older generation. With delta maintenance live,
// every drop is by definition a fallback to invalidation — the entry
// was not provably upgradable — so the prune feeds both counters.
func (c *Cache) PruneStale(shard int, gen uint64) int {
	dropped := c.lru.PruneFunc(func(_ string, e *cacheEntry) bool {
		return e.stale(shard, gen)
	})
	c.invalidations.Add(uint64(dropped))
	c.deltaFallback.Add(uint64(dropped))
	return dropped
}

// Len returns the number of cached tables.
func (c *Cache) Len() int { return c.lru.Len() }

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Capacity      int    `json:"capacity"`
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// DeltaApplied counts cache entries upgraded in place across a
	// mutation; DeltaFallbacks counts entries dropped because no delta
	// proof existed (a complete table, a pruned table losing a skyline
	// member, a top-k answer losing a member, capped rows on a delete,
	// interleaved mutations, entries more than one generation behind).
	DeltaApplied   uint64 `json:"delta_applied"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
}

// Stats returns the current counters. Counter reads are atomic and do
// not block concurrent lookups.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Capacity:       c.lru.Capacity(),
		Entries:        c.Len(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Invalidations:  c.invalidations.Load(),
		DeltaApplied:   c.deltaApplied.Load(),
		DeltaFallbacks: c.deltaFallback.Load(),
	}
}
