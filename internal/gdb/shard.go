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
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
	"skygraph/internal/vector"
)

// Sharded partitions a graph database across N independent DB shards by
// a stable hash of the graph name. Each shard keeps its own storage,
// histogram index and generation counter, so a mutation invalidates
// only its own shard's cached vector tables. Queries evaluate per shard
// in parallel and merge: the skyline of a union is the skyline of the
// per-partition skylines (the divide-and-conquer identity), top-k
// merges per-shard heaps, and range results concatenate. Answers are
// identical — including order — to a single unsharded DB holding the
// same graphs, because Sharded tracks the global insertion order and
// sorts merged results by it.
type Sharded struct {
	shards []*DB

	mu    sync.RWMutex
	order []string       // global insertion order of live graph names
	pos   map[string]int // name -> index in order

	// pivotCfg and vectorCfg remember the per-shard index
	// configurations (nil = disabled) and memo the shared score memo,
	// so Reshard can carry all three over to the new shard set.
	pivotCfg  *pivot.Config
	vectorCfg *vector.Config
	memo      *ScoreMemo
}

// NewSharded returns an empty database split across n shards (n < 1 is
// treated as 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	sh := &Sharded{shards: make([]*DB, n), pos: make(map[string]int)}
	for i := range sh.shards {
		sh.shards[i] = New()
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

// Insert routes g to its shard. Name uniqueness is global for free:
// a duplicate name always hashes to the same shard, which rejects it.
// sh.mu is held across both the shard mutation and the order update so
// a concurrent Delete of the same name cannot interleave between them
// and leave the global order out of sync with the shards; queries never
// take sh.mu (only the rank snapshot does, briefly), so mutations
// serializing against each other costs nothing on the hot path.
func (sh *Sharded) Insert(g *graph.Graph) error {
	return sh.InsertKeyed(g, "")
}

// InsertKeyed is Insert with the client's idempotency key threaded
// into the write-ahead record (durable evidence the key was accepted).
func (sh *Sharded) InsertKeyed(g *graph.Graph, key string) error {
	_, _, err := sh.InsertKeyedGen(g, key)
	return err
}

// InsertKeyedGen is InsertKeyed returning the owning shard and the
// generation the insert produced on it: the (shard, gen) evidence a
// delta-maintaining cache uses to upgrade entries in place instead of
// invalidating them.
func (sh *Sharded) InsertKeyedGen(g *graph.Graph, key string) (shard int, gen uint64, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	shard = sh.ShardFor(g.Name())
	gen, err = sh.shards[shard].InsertKeyedGen(g, key)
	if err != nil {
		return shard, 0, err
	}
	sh.pos[g.Name()] = len(sh.order)
	sh.order = append(sh.order, g.Name())
	return shard, gen, nil
}

// InsertAll inserts every graph, stopping at the first error.
func (sh *Sharded) InsertAll(gs []*graph.Graph) error {
	for _, g := range gs {
		if err := sh.Insert(g); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the named graph from its owning shard.
func (sh *Sharded) Get(name string) (*graph.Graph, bool) {
	return sh.shards[sh.ShardFor(name)].Get(name)
}

// Delete removes the named graph, reporting whether it existed. Only
// the owning shard's generation bumps. Like Insert, the shard mutation
// and the order update happen under one sh.mu critical section. With a
// Store attached, a failed write-ahead append also reports false (the
// database is unchanged); use DeleteErr to see the error itself.
func (sh *Sharded) Delete(name string) bool {
	ok, err := sh.DeleteErr(name)
	return ok && err == nil
}

// DeleteErr removes the named graph, surfacing write-ahead append
// errors (see DB.DeleteErr).
func (sh *Sharded) DeleteErr(name string) (existed bool, err error) {
	return sh.DeleteKeyedErr(name, "")
}

// DeleteKeyedErr is DeleteErr with the client's idempotency key
// threaded into the write-ahead record.
func (sh *Sharded) DeleteKeyedErr(name, key string) (existed bool, err error) {
	existed, _, _, err = sh.DeleteKeyedGen(name, key)
	return existed, err
}

// DeleteKeyedGen is DeleteKeyedErr returning the owning shard and the
// generation the delete produced on it (0 when nothing was deleted) —
// the delta-maintenance counterpart of InsertKeyedGen.
func (sh *Sharded) DeleteKeyedGen(name, key string) (existed bool, shard int, gen uint64, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	shard = sh.ShardFor(name)
	existed, gen, err = sh.shards[shard].DeleteKeyedGen(name, key)
	if !existed || err != nil {
		return existed, shard, gen, err
	}
	if p, ok := sh.pos[name]; ok {
		sh.order = append(sh.order[:p], sh.order[p+1:]...)
		delete(sh.pos, name)
		for j := p; j < len(sh.order); j++ {
			sh.pos[sh.order[j]] = j
		}
	}
	return true, shard, gen, nil
}

// SetStore attaches one write-ahead store to every shard. One SHARED
// store, not one per shard: the shard routing is a pure function of
// the graph name, so a single untagged log replays correctly under any
// shard count. sh.mu is held across every logged mutation, so append
// order in the store equals the global mutation order. Attach AFTER
// recovery replay; pass nil to detach.
func (sh *Sharded) SetStore(st Store) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, db := range sh.shards {
		db.SetStore(st)
	}
}

// insertPreservingSeq inserts g into its shard keeping a previously
// minted insert sequence — the shared primitive of Reshard (moving
// graphs between shard sets) and recovery replay (rebuilding state from
// snapshot and WAL records that carry the persisted sequences).
func (sh *Sharded) insertPreservingSeq(g *graph.Graph, seq uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := sh.shards[sh.ShardFor(g.Name())].insertWithSeq(g, seq, ""); err != nil {
		return err
	}
	sh.pos[g.Name()] = len(sh.order)
	sh.order = append(sh.order, g.Name())
	return nil
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

// EnablePivots attaches one metric pivot index per shard (each shard
// indexes exactly its own graphs — sharded pruning stays per shard, as
// with the signature bounds). Stored so Reshard re-enables the index
// on the new shard set.
func (sh *Sharded) EnablePivots(cfg pivot.Config) {
	sh.mu.Lock()
	sh.pivotCfg = &cfg
	sh.mu.Unlock()
	for _, db := range sh.shards {
		db.EnablePivots(cfg)
	}
}

// EnableVector attaches one vector candidate tier per shard (each
// shard partitions exactly its own graphs, so sharded cell skipping
// stays per shard, like the signature and pivot tiers). Stored so
// Reshard re-enables the tier on the new shard set. Enable pivots
// first to give the embeddings their pivot-midpoint block.
func (sh *Sharded) EnableVector(cfg vector.Config) {
	sh.mu.Lock()
	sh.vectorCfg = &cfg
	sh.mu.Unlock()
	for _, db := range sh.shards {
		db.EnableVector(cfg)
	}
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
		db.SetScoreMemo(m)
	}
	return m
}

// Memo returns the shared score memo (nil when disabled).
func (sh *Sharded) Memo() *ScoreMemo {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.memo
}

// WaitPivots blocks until every shard's pivot index has computed all
// scheduled distance columns (tests and benchmarks).
func (sh *Sharded) WaitPivots() {
	for _, db := range sh.shards {
		if ix := db.PivotIndex(); ix != nil {
			ix.Wait()
		}
	}
}

// WaitVector blocks until every shard's vector index has drained its
// background centroid rebuilds (tests and benchmarks; serving never
// needs it — the previous partition answers until the swap).
func (sh *Sharded) WaitVector() {
	for _, db := range sh.shards {
		if ix := db.VectorIndex(); ix != nil {
			ix.WaitRebuild()
		}
	}
}

// Reshard redistributes the database across n shards: a new Sharded
// holding the same graphs in the same global insertion order, with the
// pivot index configuration and the shared score memo carried over —
// every new shard's index re-selects pivots over its own graphs and
// rebuilds its distance columns in the background (WaitPivots blocks
// until they are ready), and graphs KEEP their insert sequences (a
// reshard moves values, it does not change them), so existing memo
// entries stay reachable. The receiver is left untouched; callers must
// quiesce mutations for the duration or the new database may miss
// them.
func (sh *Sharded) Reshard(n int) (*Sharded, error) {
	out := NewSharded(n)
	sh.mu.RLock()
	cfg, vcfg, memo := sh.pivotCfg, sh.vectorCfg, sh.memo
	sh.mu.RUnlock()
	if cfg != nil {
		out.EnablePivots(*cfg)
	}
	if vcfg != nil {
		out.EnableVector(*vcfg)
	}
	if memo != nil {
		out.mu.Lock()
		out.memo = memo
		out.mu.Unlock()
		for _, db := range out.shards {
			db.SetScoreMemo(memo)
		}
	}
	for _, name := range sh.Names() {
		src := sh.shards[sh.ShardFor(name)]
		g, ok := src.Get(name)
		if !ok {
			continue // deleted mid-reshard; the caller broke quiescence
		}
		seq, _ := src.seqOf(name)
		if err := out.insertPreservingSeq(g, seq); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// shardedWorkers resolves the per-shard pair-evaluation parallelism:
// an explicit value is taken as-is (per shard); the default spreads
// GOMAXPROCS across the shards evaluating concurrently.
func (sh *Sharded) shardedWorkers(w int) int {
	if w > 0 {
		return w
	}
	n := len(sh.shards)
	return (runtime.GOMAXPROCS(0) + n - 1) / n
}

// VectorTables evaluates q against every shard concurrently, returning
// one VectorTable per shard (indexed by shard). opts.Workers is the
// pair-evaluation parallelism per shard; 0 spreads GOMAXPROCS across
// the shards. The first shard error aborts the whole evaluation.
//
// This is the library-level entry point (every shard evaluates, so the
// flat worker spread is right). The serving layer instead fetches shard
// tables individually through its cache and sizes workers by the
// shards actually evaluating — if you change evaluation semantics
// here, check Server.tables keeps matching; the equivalence harness
// covers both paths.
//
// opts.Prune applies per shard: each shard filters against its own
// candidates only, so sharded pruning is (at worst) less aggressive
// than unsharded pruning, never incorrect — cross-shard dominance is
// re-established by the skyline merge.
func (sh *Sharded) VectorTables(ctx context.Context, q *graph.Graph, opts QueryOptions) ([]*VectorTable, error) {
	opts.Workers = sh.shardedWorkers(opts.Workers)
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
			tables[i], errs[i] = db.VectorTable(ctx, q, opts)
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

// SortItemsByRank restores global insertion order on scalar result
// rows (used by the serving layer to order merged ranked answers; the
// table merge paths call it internally).
func (sh *Sharded) SortItemsByRank(items []topk.Item) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sort.SliceStable(items, func(i, j int) bool { return byRank(sh.pos, items[i].ID, items[j].ID) })
}

// sortItemsByRank is sortPointsByRank for scalar result rows.
func (sh *Sharded) sortItemsByRank(items []topk.Item) {
	if len(sh.shards) == 1 {
		return
	}
	sh.SortItemsByRank(items)
}

// MergeTables concatenates per-shard tables into the full global vector
// table in insertion order — exactly the Points of an unsharded
// VectorTable over the same graphs (for pruned tables: the evaluated
// survivors only).
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

// MergeTopK merges per-shard top-k heaps: each shard contributes its k
// best rows under m, and one final selection over the (at most
// k*shards) candidates yields the global top-k in the deterministic
// (score, ID) order of topk.Select.
func (sh *Sharded) MergeTopK(tables []*VectorTable, m measure.Measure, k int) ([]topk.Item, error) {
	if k < 1 {
		return nil, fmt.Errorf("gdb: k must be >= 1")
	}
	var all []topk.Item
	for _, t := range tables {
		items, err := t.TopK(m, k)
		if err != nil {
			return nil, err
		}
		all = append(all, items...)
	}
	return topk.Select(all, k), nil
}

// MergeRange concatenates per-shard range results and restores global
// insertion order.
func (sh *Sharded) MergeRange(tables []*VectorTable, m measure.Measure, radius float64) ([]topk.Item, error) {
	var all []topk.Item
	for _, t := range tables {
		items, err := t.Range(m, radius)
		if err != nil {
			return nil, err
		}
		all = append(all, items...)
	}
	sh.sortItemsByRank(all)
	return all, nil
}

// tableRows counts the rows entering a table merge (the merge stage's
// pair count).
func tableRows(tables []*VectorTable) int {
	n := 0
	for _, t := range tables {
		n += len(t.Points)
	}
	return n
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

// SkylineQueryContext is the sharded analogue of DB.SkylineQueryContext:
// per-shard parallel evaluation and local skylines, merged.
func (sh *Sharded) SkylineQueryContext(ctx context.Context, q *graph.Graph, opts QueryOptions) (SkylineResult, error) {
	start := time.Now()
	tables, err := sh.VectorTables(ctx, q, opts)
	if err != nil {
		return SkylineResult{}, err
	}
	var mstart time.Time
	if opts.Trace != nil {
		mstart = time.Now()
	}
	res := SkylineResult{
		Skyline: sh.MergeSkyline(tables, opts.Algorithm),
		All:     sh.MergeTables(tables),
		Stats:   mergedStats(tables, start),
	}
	if opts.Trace != nil {
		opts.Trace.Observe(StageMerge, time.Since(mstart), len(res.All), 0)
	}
	return res, nil
}

// withMeasure ensures m is one of the basis columns so table-derived
// answers can rank by it (mirrors the server's basis extension).
func withMeasure(opts QueryOptions, m measure.Measure) QueryOptions {
	basis := opts.Basis
	if basis == nil {
		basis = measure.Default()
	}
	for _, b := range basis {
		if b.Name() == m.Name() {
			opts.Basis = basis
			return opts
		}
	}
	opts.Basis = append(append([]measure.Measure{}, basis...), m)
	return opts
}

// TopKQueryContext answers a single-measure top-k query. With
// opts.Prune set (and a built-in measure), every shard runs the
// best-first bound-index scan of ranked.go concurrently against ONE
// shared collector, so the k-th best score seen anywhere prunes
// candidates everywhere — no shard builds a full table. Otherwise
// per-shard complete tables are built and heap-merged. Items are
// identical either way.
func (sh *Sharded) TopKQueryContext(ctx context.Context, q *graph.Graph, m measure.Measure, k int, opts QueryOptions) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("gdb: k must be >= 1")
	}
	start := time.Now()
	if opts.Prune && measure.Rankable(m) {
		run := NewRankedTopK(m, k)
		stats, err := sh.evalRankedShards(ctx, run, q, opts)
		if err != nil {
			return TopKResult{}, err
		}
		stats.Duration = time.Since(start)
		return TopKResult{Items: run.Items(), Stats: stats}, nil
	}
	opts.Prune = false // table ranking needs every row
	tables, err := sh.VectorTables(ctx, q, withMeasure(opts, m))
	if err != nil {
		return TopKResult{}, err
	}
	var mstart time.Time
	if opts.Trace != nil {
		mstart = time.Now()
	}
	items, err := sh.MergeTopK(tables, m, k)
	if err != nil {
		return TopKResult{}, err
	}
	if opts.Trace != nil {
		opts.Trace.Observe(StageMerge, time.Since(mstart), tableRows(tables), 0)
	}
	return TopKResult{Items: items, Stats: mergedStats(tables, start)}, nil
}

// RangeQueryContext answers a single-measure range query. With
// opts.Prune set (and a built-in measure), shards run the best-first
// scan with the radius as a fixed threshold instead of building full
// tables; items are identical either way, in global insertion order.
func (sh *Sharded) RangeQueryContext(ctx context.Context, q *graph.Graph, m measure.Measure, radius float64, opts QueryOptions) (RangeResult, error) {
	start := time.Now()
	if opts.Prune && measure.Rankable(m) {
		run := NewRankedRange(m, radius)
		stats, err := sh.evalRankedShards(ctx, run, q, opts)
		if err != nil {
			return RangeResult{}, err
		}
		items := run.Items()
		sh.SortItemsByRank(items)
		stats.Duration = time.Since(start)
		return RangeResult{Items: items, Stats: stats}, nil
	}
	opts.Prune = false // table ranging needs every row
	tables, err := sh.VectorTables(ctx, q, withMeasure(opts, m))
	if err != nil {
		return RangeResult{}, err
	}
	var mstart time.Time
	if opts.Trace != nil {
		mstart = time.Now()
	}
	items, err := sh.MergeRange(tables, m, radius)
	if err != nil {
		return RangeResult{}, err
	}
	if opts.Trace != nil {
		opts.Trace.Observe(StageMerge, time.Since(mstart), tableRows(tables), 0)
	}
	return RangeResult{Items: items, Stats: mergedStats(tables, start)}, nil
}

// evalRankedShards drives one Ranked run over every shard
// concurrently. opts.Workers is the per-shard scan width; 0 spreads
// GOMAXPROCS across the shards, mirroring VectorTables.
func (sh *Sharded) evalRankedShards(ctx context.Context, run *Ranked, q *graph.Graph, opts QueryOptions) (QueryStats, error) {
	opts.Workers = sh.shardedWorkers(opts.Workers)
	stats := make([]QueryStats, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, db := range sh.shards {
		wg.Add(1)
		go func(i int, db *DB) {
			defer wg.Done()
			stats[i], errs[i] = run.EvalDB(ctx, db, q, opts)
		}(i, db)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return QueryStats{}, err
		}
	}
	total := QueryStats{}
	for _, s := range stats {
		total.Work.Add(s.Work)
		total.Inexact += s.Inexact
	}
	return total, nil
}

// LoadSharded reads an LGF file into a fresh n-shard database.
func LoadSharded(path string, n int) (*Sharded, error) {
	db, err := Load(path)
	if err != nil {
		return nil, err
	}
	sh := NewSharded(n)
	if err := sh.InsertAll(db.Graphs()); err != nil {
		return nil, err
	}
	return sh, nil
}
