package gdb

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// Sharded is the graph database: the one query and mutation surface.
// It partitions the collection across N independent DB shards by a
// stable hash of the graph name (N = 1 is the plain, unpartitioned
// database). Each shard keeps its own storage, signature index and
// generation counter, so a mutation touches only its own shard's part
// of a cached answer. Queries evaluate per shard in parallel and
// merge: the skyline of a union is the skyline of the per-partition
// skylines (the divide-and-conquer identity), while top-k and range
// scan every shard against one shared threshold. Answers are identical
// — including order — at every shard count, because Sharded tracks the
// global insertion order and sorts merged results by it.
//
// The surface: Insert / Delete / InsertAll; SkylineQuery, TopKQuery,
// RangeQuery and DiverseSkylineQuery; the table primitives a caching
// layer composes instead (VectorTables, MergeSkyline, MergeTables); the
// score memo (EnableScoreMemo, Memo); and persistence (Save, WriteTo,
// Load, OpenDurable).
type Sharded struct {
	shards []*DB

	mu    sync.RWMutex
	order []string       // global insertion order of live graph names
	pos   map[string]int // name -> index in order

	memo *ScoreMemo // the score memo shared by every shard (nil = disabled)
}

// NewSharded returns an empty database split across n shards (n < 1 is
// treated as 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	sh := &Sharded{shards: make([]*DB, n), pos: make(map[string]int)}
	for i := range sh.shards {
		sh.shards[i] = newDB()
	}
	return sh
}

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns the i-th shard's DB. Callers must not mutate it
// directly; route inserts and deletes through Sharded so the global
// order stays consistent.
func (sh *Sharded) Shard(i int) *DB { return sh.shards[i] }

// ShardFor returns the shard owning the given graph name (stable FNV-1a
// hash, so the mapping survives restarts).
func (sh *Sharded) ShardFor(name string) int {
	if len(sh.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(sh.shards)))
}

// Ack is the evidence a mutation leaves: the owning shard, the
// generation the mutation produced on it (0 when nothing changed) — the
// (shard, gen) step a delta-maintaining cache uses to upgrade entries
// in place instead of invalidating them — and whether the name was
// present beforehand: a delete removed something exactly when Existed
// is set and err is nil, an insert was refused as a duplicate when it
// is.
type Ack struct {
	Shard   int
	Gen     uint64
	Existed bool
}

// Insert routes g to its shard. The graph must be non-nil, validate and
// carry a non-empty, unused name; name uniqueness is global for free —
// a duplicate always hashes to the same shard, which rejects it. key is
// the client's idempotency key ("" = unkeyed), threaded into the
// write-ahead record as durable evidence it was accepted. The database
// stores g itself; callers must not mutate a graph after insertion
// (Clone first if needed).
func (sh *Sharded) Insert(g *graph.Graph, key string) (Ack, error) {
	return sh.insert(g, insertSeq.Add(1), key)
}

// insert is Insert under a caller-supplied insert sequence: a fresh one
// for new graphs, the persisted one on recovery replay. sh.mu is held
// across both the shard mutation and the order update so a concurrent
// Delete of the same name cannot interleave between them and leave the
// global order out of sync with the shards; queries never take sh.mu
// (only the rank snapshot does, briefly), so mutations serializing
// against each other costs nothing on the hot path.
func (sh *Sharded) insert(g *graph.Graph, seq uint64, key string) (Ack, error) {
	if g == nil {
		return Ack{}, fmt.Errorf("gdb: nil graph")
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ack := Ack{Shard: sh.ShardFor(g.Name())}
	_, ack.Existed = sh.pos[g.Name()]
	gen, err := sh.shards[ack.Shard].insert(g, seq, key)
	if err != nil {
		return ack, err
	}
	ack.Gen = gen
	sh.pos[g.Name()] = len(sh.order)
	sh.order = append(sh.order, g.Name())
	return ack, nil
}

// InsertAll inserts every graph unkeyed, stopping at the first error.
func (sh *Sharded) InsertAll(gs []*graph.Graph) error {
	for _, g := range gs {
		if _, err := sh.Insert(g, ""); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the named graph from its owning shard.
func (sh *Sharded) Get(name string) (*graph.Graph, bool) {
	return sh.shards[sh.ShardFor(name)].Get(name)
}

// Delete removes the named graph; Ack.Existed reports whether it was
// there. Only the owning shard's generation bumps. Like Insert, the
// shard mutation and the order update happen under one sh.mu critical
// section, and key rides into the write-ahead record. err is non-nil
// only when the write-ahead append failed, in which case the graph
// remains.
func (sh *Sharded) Delete(name, key string) (Ack, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ack := Ack{Shard: sh.ShardFor(name)}
	var err error
	ack.Existed, ack.Gen, err = sh.shards[ack.Shard].delete(name, key)
	if !ack.Existed || err != nil {
		return ack, err
	}
	if p, ok := sh.pos[name]; ok {
		sh.order = append(sh.order[:p], sh.order[p+1:]...)
		delete(sh.pos, name)
		for j := p; j < len(sh.order); j++ {
			sh.pos[sh.order[j]] = j
		}
	}
	return ack, nil
}

// setStore attaches one write-ahead store to every shard. One SHARED
// store, not one per shard: the shard routing is a pure function of
// the graph name, so a single untagged log replays correctly under any
// shard count. sh.mu is held across every logged mutation, so append
// order in the store equals the global mutation order. Attach AFTER
// recovery replay; pass nil to detach.
func (sh *Sharded) setStore(st Store) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, db := range sh.shards {
		db.setStore(st)
	}
}

// Len returns the total number of stored graphs.
func (sh *Sharded) Len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.order)
}

// Names returns all graph names in global insertion order.
func (sh *Sharded) Names() []string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]string(nil), sh.order...)
}

// Graphs returns all stored graphs in global insertion order.
func (sh *Sharded) Graphs() []*graph.Graph {
	var out []*graph.Graph
	for _, n := range sh.Names() {
		if g, ok := sh.Get(n); ok {
			out = append(out, g)
		}
	}
	return out
}

// EnableScoreMemo attaches one shared cross-query score memo to every
// shard (entries are keyed by process-unique insert sequences, so
// sharing one LRU across shards is safe and pools its capacity where
// the traffic is).
func (sh *Sharded) EnableScoreMemo(capacity int) *ScoreMemo {
	sh.mu.Lock()
	if sh.memo == nil {
		sh.memo = NewScoreMemo(capacity)
	}
	m := sh.memo
	sh.mu.Unlock()
	for _, db := range sh.shards {
		db.setScoreMemo(m)
	}
	return m
}

// Memo returns the shared score memo (nil when disabled).
func (sh *Sharded) Memo() *ScoreMemo {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.memo
}

// ShardGeneration returns shard i's generation counter.
func (sh *Sharded) ShardGeneration(i int) uint64 { return sh.shards[i].Generation() }

// Generations returns every shard's generation counter.
func (sh *Sharded) Generations() []uint64 {
	out := make([]uint64, len(sh.shards))
	for i, db := range sh.shards {
		out[i] = db.Generation()
	}
	return out
}

// Generation returns the sum of the shard generations: a single counter
// that changes on every successful mutation anywhere in the database.
func (sh *Sharded) Generation() uint64 {
	var sum uint64
	for _, db := range sh.shards {
		sum += db.Generation()
	}
	return sum
}

// Stats aggregates statistics across shards. Distinct label counts are
// unioned, not summed.
func (sh *Sharded) Stats() Stats {
	s := Stats{}
	vl, el := map[string]bool{}, map[string]bool{}
	first := true
	for _, db := range sh.shards {
		ds, svl, sel := db.statsAndLabels()
		if ds.Graphs == 0 {
			continue
		}
		s.Graphs += ds.Graphs
		s.Vertices += ds.Vertices
		s.Edges += ds.Edges
		if first || ds.MinSize < s.MinSize {
			s.MinSize = ds.MinSize
		}
		if first || ds.MaxSize > s.MaxSize {
			s.MaxSize = ds.MaxSize
		}
		first = false
		for l := range svl {
			vl[l] = true
		}
		for l := range sel {
			el[l] = true
		}
	}
	s.VertexLabels, s.EdgeLabels = len(vl), len(el)
	return s
}

// shardWorkers resolves the per-shard pair-evaluation parallelism: an
// explicit value is taken as-is (per shard); the default spreads
// GOMAXPROCS across the n shards evaluating concurrently.
func shardWorkers(w, n int) int {
	if w > 0 {
		return w
	}
	return (runtime.GOMAXPROCS(0) + n - 1) / n
}

// VectorTables evaluates q against every shard concurrently, returning
// one VectorTable per shard (indexed by shard). opts.Workers is the
// pair-evaluation parallelism per shard; 0 spreads GOMAXPROCS across
// the shards. The first shard error aborts the whole evaluation. It is
// the one table build: SkylineQuery and the serving layer's cached
// skyline answers both run it. Each table records the generation of the
// shard snapshot it read.
//
// opts.Prune applies per shard: each shard filters against its own
// candidates only, so sharded pruning is (at worst) less aggressive
// than one-shard pruning, never incorrect — cross-shard dominance is
// re-established by the skyline merge.
func (sh *Sharded) VectorTables(ctx context.Context, q *graph.Graph, opts QueryOptions) ([]*VectorTable, error) {
	opts.Workers = shardWorkers(opts.Workers, len(sh.shards))
	if opts.QueryHash == "" && sh.Memo() != nil {
		// Canonicalize once for all shards; each shard's memo keys use it.
		opts.QueryHash = graph.QueryHash(q)
	}
	tables := make([]*VectorTable, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, db := range sh.shards {
		wg.Add(1)
		go func(i int, db *DB) {
			defer wg.Done()
			tables[i], errs[i] = db.vectorTable(ctx, q, opts)
		}(i, db)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// byRank orders by global insertion rank; names no longer present
// (deleted since the tables were built) sort last, by name, so the
// order is still deterministic.
func byRank(rank map[string]int, a, b string) bool {
	ra, aok := rank[a]
	rb, bok := rank[b]
	if aok != bok {
		return aok
	}
	if !aok {
		return a < b
	}
	return ra < rb
}

// sortPointsByRank restores global insertion order. The rank map is
// read in place under the read lock rather than copied — the sort is
// O(result·log result), not O(database) — and a single shard's results
// are already in insertion order, so nothing to do there.
func (sh *Sharded) sortPointsByRank(pts []skyline.Point) {
	if len(sh.shards) == 1 {
		return
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sort.SliceStable(pts, func(i, j int) bool { return byRank(sh.pos, pts[i].ID, pts[j].ID) })
}

// sortItemsByRank restores global insertion order on range answers.
func (sh *Sharded) sortItemsByRank(items []topk.Item) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sort.SliceStable(items, func(i, j int) bool { return byRank(sh.pos, items[i].ID, items[j].ID) })
}

// MergeTables concatenates per-shard tables into the full global vector
// table in insertion order (for pruned tables: the evaluated survivors
// only).
func (sh *Sharded) MergeTables(tables []*VectorTable) []skyline.Point {
	out := []skyline.Point{}
	for _, t := range tables {
		out = append(out, t.Points...)
	}
	sh.sortPointsByRank(out)
	return out
}

// MergeSkyline computes each shard's local skyline and cross-filters
// them with the divide-and-conquer combiner, returning the global
// skyline in insertion order. Only local skyline members cross shard
// boundaries — the merge never re-examines dominated points.
func (sh *Sharded) MergeSkyline(tables []*VectorTable, alg skyline.Algorithm) []skyline.Point {
	parts := make([][]skyline.Point, len(tables))
	for i, t := range tables {
		parts[i] = t.Skyline(alg)
	}
	merged := skyline.Merge(parts)
	sh.sortPointsByRank(merged)
	return merged
}

// mergedStats folds per-shard table stats into query stats.
func mergedStats(tables []*VectorTable, start time.Time) QueryStats {
	s := QueryStats{Duration: time.Since(start)}
	for _, t := range tables {
		s.Work.Add(t.Work)
		s.Inexact += t.Inexact
	}
	return s
}
