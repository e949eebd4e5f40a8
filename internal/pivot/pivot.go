// Package pivot implements a metric pivot index over a graph
// collection, in the LAESA / vantage-point tradition of the GED
// similarity-search literature. Uniform-cost graph edit distance is a
// metric, so for any pivot graph p the triangle inequality brackets the
// distance of a query q to every stored graph g:
//
//	|d(q,p) − d(p,g)|  ≤  d(q,g)  ≤  d(q,p) + d(p,g)
//
// The index pays for the d(p,g) column once, in the background at
// insert time, and a query pays for its P pivot distances once — after
// that every candidate gets a GED interval for O(P) arithmetic, usually
// far tighter than the label-histogram bound on structurally similar
// graphs. Because the A* engine can cap out, both sides are stored as
// certified intervals (proven lower bound, reported upper bound), and
// the triangle algebra is done on intervals, so the derived bounds are
// admissible no matter how much of the index has been computed exactly.
//
// Pivots are selected by a deterministic max-min farthest-first sweep
// over the signature lower bounds (measure.Signature.HistLB): the first
// stored graph seeds the sweep, then each further pivot is the graph
// maximizing its minimum bound-distance to the pivots already chosen,
// ties broken by insertion order. The index re-selects (and recomputes
// its columns, epoch-guarded) whenever the collection doubles past the
// last selection or a pivot is deleted, so long-lived databases keep
// representative pivots without any foreground work.
package pivot

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// Defaults for Config zero values.
const (
	DefaultPivots        = 4
	DefaultMaxNodes      = 20000
	DefaultQueryMaxNodes = 3000
)

// Config tunes an Index.
type Config struct {
	// Pivots is the number of pivot graphs P (0 = DefaultPivots).
	Pivots int
	// MaxNodes caps the insert-time A* computing each d(p, g) column
	// entry (0 = DefaultMaxNodes, negative = unbounded exact). Capped
	// entries degrade to certified intervals instead of points.
	MaxNodes int64
	// QueryMaxNodes caps the per-query d(q, p) computations, which run
	// on the query hot path (0 = DefaultQueryMaxNodes, negative =
	// unbounded exact).
	QueryMaxNodes int64
	// Workers bounds the background distance workers (0 = GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Pivots <= 0 {
		c.Pivots = DefaultPivots
	}
	switch {
	case c.MaxNodes == 0:
		c.MaxNodes = DefaultMaxNodes
	case c.MaxNodes < 0:
		c.MaxNodes = 0 // ged.Options semantics: 0 = unlimited
	}
	switch {
	case c.QueryMaxNodes == 0:
		c.QueryMaxNodes = DefaultQueryMaxNodes
	case c.QueryMaxNodes < 0:
		c.QueryMaxNodes = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Entry is a certified interval around one true pivot distance:
// Lo <= d <= Hi, with Lo == Hi when the search finished exactly.
type Entry struct {
	Lo, Hi float64
}

// member is one indexed graph.
type member struct {
	g   *graph.Graph
	sig *measure.Signature
}

// job is one background distance-column computation.
type job struct {
	name  string
	epoch uint64
}

// Index maintains the pivot set and the per-graph distance columns for
// one graph collection. All methods are safe for concurrent use; the
// expensive distance computations run on background workers that spawn
// while work is queued and exit when it drains (no persistent
// goroutines, nothing to close).
type Index struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	order   []string // live member names, insertion order
	members map[string]*member
	pivots  []*member
	pnames  []string
	// entries maps a member name to its pivot-distance column for the
	// current epoch. Columns are immutable once published.
	entries map[string][]Entry
	// snap is the query-facing copy of entries, rebuilt lazily when
	// snapDirty (a column published, a member removed, an epoch
	// turned). Once the index is fully built — the steady state —
	// every Columns snapshot shares one immutable map instead of
	// paying an O(members) copy per query.
	snap       map[string][]Entry
	snapDirty  bool
	epoch      uint64
	selectedAt int // member count at the last pivot selection
	queue      []job
	running    int

	// Monotone work counters (atomics: column work is recorded outside
	// the mutex), exposed via Counters for metrics exporters.
	rebuilds     atomic.Int64
	rebuildNanos atomic.Int64
	columns      atomic.Int64
	columnNanos  atomic.Int64
}

// Counters is a monotone snapshot of the index's background work.
type Counters struct {
	// Rebuilds counts pivot re-selections; RebuildNanos is their total
	// inline selection time.
	Rebuilds     int64
	RebuildNanos int64
	// Columns counts distance columns computed, including recomputations
	// that a newer epoch later discarded; ColumnNanos is their total
	// engine time.
	Columns     int64
	ColumnNanos int64
}

// Counters returns the index's cumulative work counters.
func (ix *Index) Counters() Counters {
	return Counters{
		Rebuilds:     ix.rebuilds.Load(),
		RebuildNanos: ix.rebuildNanos.Load(),
		Columns:      ix.columns.Load(),
		ColumnNanos:  ix.columnNanos.Load(),
	}
}

// New returns an empty index.
func New(cfg Config) *Index {
	ix := &Index{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*member),
		entries: make(map[string][]Entry),
	}
	ix.cond = sync.NewCond(&ix.mu)
	return ix
}

// Config returns the resolved configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Add registers a stored graph (callers must not mutate g afterwards,
// matching the database's contract) and schedules its distance column
// in the background. Adding the graph that doubles the collection past
// the last pivot selection triggers a deterministic re-selection.
func (ix *Index) Add(name string, g *graph.Graph, sig *measure.Signature) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.members[name]; dup {
		return
	}
	ix.members[name] = &member{g: g, sig: sig}
	ix.order = append(ix.order, name)
	n := len(ix.order)
	switch {
	case ix.selectedAt == 0 && n >= ix.cfg.Pivots:
		ix.rebuildLocked()
	case ix.selectedAt > 0 && n >= 2*ix.selectedAt:
		ix.rebuildLocked()
	case ix.selectedAt > 0:
		ix.enqueueLocked(job{name: name, epoch: ix.epoch})
	}
}

// Remove forgets a graph. Removing a pivot triggers re-selection over
// the remaining members.
func (ix *Index) Remove(name string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.members[name]; !ok {
		return
	}
	delete(ix.members, name)
	if _, had := ix.entries[name]; had {
		delete(ix.entries, name)
		ix.snapDirty = true
	}
	for i, n := range ix.order {
		if n == name {
			ix.order = append(ix.order[:i], ix.order[i+1:]...)
			break
		}
	}
	for _, pn := range ix.pnames {
		if pn == name {
			ix.rebuildLocked()
			return
		}
	}
}

// rebuildLocked re-selects the pivot set from the current members and
// schedules every distance column for recomputation under a new epoch
// (stale queued or in-flight jobs publish nothing). Selection itself is
// cheap — O(members × pivots) histogram bounds — so it runs inline.
func (ix *Index) rebuildLocked() {
	start := time.Now()
	defer func() {
		ix.rebuilds.Add(1)
		ix.rebuildNanos.Add(int64(time.Since(start)))
	}()
	ix.epoch++
	ix.entries = make(map[string][]Entry)
	ix.snapDirty = true
	ix.pivots, ix.pnames = nil, nil
	ix.selectedAt = len(ix.order)
	if len(ix.order) == 0 {
		return
	}
	p := ix.cfg.Pivots
	if p > len(ix.order) {
		p = len(ix.order)
	}
	// Farthest-first: seed with the oldest member, then repeatedly take
	// the member maximizing its min HistLB to the chosen set (ties to
	// the earliest inserted, so the sweep is deterministic).
	minDist := make([]float64, len(ix.order))
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	chosen := make([]bool, len(ix.order))
	pick := 0
	for len(ix.pivots) < p {
		pm := ix.members[ix.order[pick]]
		chosen[pick] = true
		ix.pivots = append(ix.pivots, pm)
		ix.pnames = append(ix.pnames, ix.order[pick])
		best, bestAt := -1.0, -1
		for i, name := range ix.order {
			if chosen[i] {
				continue
			}
			if d := ix.members[name].sig.HistLB(pm.sig); d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > best {
				best, bestAt = minDist[i], i
			}
		}
		if bestAt < 0 {
			break
		}
		pick = bestAt
	}
	jobs := make([]job, 0, len(ix.order))
	for _, name := range ix.order {
		jobs = append(jobs, job{name: name, epoch: ix.epoch})
	}
	ix.enqueueLocked(jobs...)
}

// enqueueLocked appends work and tops up the drainer pool.
func (ix *Index) enqueueLocked(jobs ...job) {
	ix.queue = append(ix.queue, jobs...)
	for ix.running < ix.cfg.Workers && ix.running < len(ix.queue) {
		ix.running++
		go ix.drain()
	}
}

// drain processes queued columns until the queue empties, then exits.
func (ix *Index) drain() {
	for {
		ix.mu.Lock()
		if len(ix.queue) == 0 {
			ix.running--
			if ix.running == 0 {
				ix.cond.Broadcast()
			}
			ix.mu.Unlock()
			return
		}
		j := ix.queue[0]
		ix.queue = ix.queue[1:]
		if j.epoch != ix.epoch {
			ix.mu.Unlock()
			continue
		}
		m, live := ix.members[j.name]
		pivots := ix.pivots
		ix.mu.Unlock()
		if !live {
			continue
		}
		colStart := time.Now()
		col := make([]Entry, len(pivots))
		for i, p := range pivots {
			col[i] = distance(m.g, m.sig, p, ix.cfg.MaxNodes)
		}
		ix.columns.Add(1)
		ix.columnNanos.Add(int64(time.Since(colStart)))
		ix.mu.Lock()
		// Publish only if the name still holds the graph the column was
		// computed for: a delete and re-insert under the same name while
		// the engines ran queues the new graph's own job, and the old
		// column must not land over (or after) it.
		if j.epoch == ix.epoch && ix.members[j.name] == m {
			ix.entries[j.name] = col
			ix.snapDirty = true
		}
		ix.mu.Unlock()
	}
}

// distance computes the certified interval around the true GED between
// g and pivot p: a point when A* finishes, otherwise the max of the
// search's frontier floor and the histogram bound below, the bipartite
// mapping cost above.
func distance(g *graph.Graph, sig *measure.Signature, p *member, maxNodes int64) Entry {
	res := ged.Exact(g, p.g, ged.Options{MaxNodes: maxNodes})
	if res.Exact {
		return Entry{Lo: res.Distance, Hi: res.Distance}
	}
	lo := sig.HistLB(p.sig)
	if res.LowerBound > lo {
		lo = res.LowerBound
	}
	return Entry{Lo: lo, Hi: res.Distance}
}

// Wait blocks until every scheduled distance column has been computed
// (benchmarks and tests; serving layers never need it — queries simply
// skip graphs whose column is not ready yet).
func (ix *Index) Wait() {
	ix.mu.Lock()
	for len(ix.queue) > 0 || ix.running > 0 {
		ix.cond.Wait()
	}
	ix.mu.Unlock()
}

// Ready reports the index occupancy: the current pivot count, how many
// member columns have been computed for the current epoch, and how many
// are still pending (members without a published column).
func (ix *Index) Ready() (pivots, entries, pending int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.pivots), len(ix.entries), len(ix.members) - len(ix.entries)
}

// Pivots returns the current pivot names, in selection order.
func (ix *Index) Pivots() []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return append([]string(nil), ix.pnames...)
}

// QueryBounds carries one query's pivot distances plus a consistent
// snapshot of the index columns: GED returns the triangle-inequality
// interval for a candidate in O(P), with no locking and no engine work.
type QueryBounds struct {
	qd      []Entry
	entries map[string][]Entry
	epoch   uint64
	// Dists is the number of query-to-pivot engine runs performed.
	Dists int
}

// snapLocked returns the query-facing copy of the columns, rebuilding
// it if stale. Callers must hold ix.mu.
func (ix *Index) snapLocked() map[string][]Entry {
	if ix.snap == nil || ix.snapDirty {
		ix.snap = make(map[string][]Entry, len(ix.entries))
		for name, col := range ix.entries {
			ix.snap[name] = col
		}
		ix.snapDirty = false
	}
	return ix.snap
}

// Columns is a consistent snapshot of the index: the pivot set, its
// selection epoch and the published distance columns, all from one
// lock acquisition. Taking it costs no engine work, so a database can
// take it while it holds its own lock and the columns then describe
// exactly the graphs it read under that lock (a column is published
// only while its name still holds the graph it was computed for, and a
// remove drops the column at once). Query adds the query's distances.
type Columns struct {
	pivots   []*member
	entries  map[string][]Entry
	epoch    uint64
	maxNodes int64 // Config.QueryMaxNodes
}

// Columns snapshots the index. It returns nil when no pivots are
// selected or no column is published yet, so callers can gate the whole
// tier on one check.
func (ix *Index) Columns() *Columns {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	entries := ix.snapLocked()
	if len(ix.pivots) == 0 || len(entries) == 0 {
		return nil
	}
	return &Columns{pivots: ix.pivots, entries: entries, epoch: ix.epoch, maxNodes: ix.cfg.QueryMaxNodes}
}

// Query computes the query's P pivot distances (the only engine work
// the pivot tier adds to a query) against the snapshot. Nil-safe: a nil
// snapshot yields nil bounds.
func (c *Columns) Query(q *graph.Graph, qsig *measure.Signature) *QueryBounds {
	if c == nil {
		return nil
	}
	qb := &QueryBounds{qd: make([]Entry, len(c.pivots)), entries: c.entries, epoch: c.epoch, Dists: len(c.pivots)}
	for i, p := range c.pivots {
		qb.qd[i] = distance(q, qsig, p, c.maxNodes)
	}
	return qb
}

// Epoch returns the selection epoch the bounds were captured at.
// Consumers holding per-epoch derived data (the vector tier's cell
// summaries) compare epochs before trusting any cross-referenced
// per-pivot geometry.
func (qb *QueryBounds) Epoch() uint64 { return qb.epoch }

// NumPivots returns the number of query-to-pivot intervals held.
func (qb *QueryBounds) NumPivots() int { return len(qb.qd) }

// QueryDistance returns the i-th query-to-pivot certified interval, in
// pivot selection order.
func (qb *QueryBounds) QueryDistance(i int) Entry { return qb.qd[i] }

// Midpoints returns the midpoint of every query-to-pivot interval, in
// pivot selection order — the query's coordinates in the pivot-distance
// part of the vector tier's embedding space.
func (qb *QueryBounds) Midpoints() []float64 {
	out := make([]float64, len(qb.qd))
	for i, e := range qb.qd {
		out[i] = (e.Lo + e.Hi) / 2
	}
	return out
}

// ColumnsSnapshot returns the current selection epoch, the pivot names
// in selection order, and the query-facing snapshot of the published
// distance columns. The snapshot map is shared and immutable — callers
// must not mutate it. The vector tier reads it to place members at
// their pivot-distance midpoints and to summarize per-cell pivot
// ranges; the epoch tag lets it reject cross-epoch combinations.
func (ix *Index) ColumnsSnapshot() (epoch uint64, pnames []string, cols map[string][]Entry) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.epoch, append([]string(nil), ix.pnames...), ix.snapLocked()
}

// GED returns the intersected triangle-inequality interval
// [lo, hi] around the true GED(q, g) for the named candidate. ok is
// false when the candidate's column is not in the snapshot (not yet
// computed, or inserted after the snapshot); the caller then keeps its
// signature-only bounds.
func (qb *QueryBounds) GED(name string) (lo, hi float64, ok bool) {
	col, ok := qb.entries[name]
	if !ok || len(col) != len(qb.qd) {
		return 0, 0, false
	}
	lo, hi = 0, math.Inf(1)
	for i, pg := range col {
		qp := qb.qd[i]
		if l := qp.Lo - pg.Hi; l > lo {
			lo = l
		}
		if l := pg.Lo - qp.Hi; l > lo {
			lo = l
		}
		if h := qp.Hi + pg.Hi; h < hi {
			hi = h
		}
	}
	return lo, hi, true
}
