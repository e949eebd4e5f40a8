package gdb

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

// Best-first ranked-query evaluation. A top-k or range query does not
// need the exact score of every database graph: candidates are ordered
// by the optimistic (lower) end of their signature-derived score
// interval and evaluated most-promising-first against a live threshold
// — the current k-th best score, or the radius. The moment the next
// candidate's optimistic bound exceeds the threshold, every remaining
// candidate is provably out and the scan stops. Candidates the bound
// cannot settle go through the same tiers as pruned skyline evaluation:
// polynomial refinement (bipartite + greedy, witnesses reused), then a
// threshold-fed decision run of the exact engines (ged.Options.Limit /
// mcs.Options.Need) that discards most survivors without paying for
// exactness, and a plain exact evaluation only for candidates that
// might make the answer. Included scores are byte-identical to the full
// scan's, so the answer — scores and tie-order — matches the unpruned
// path exactly.

// atomicFloat is a lock-free float64 cell (stored as bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// rankedCollector accumulates exact scores behind a mutex and exposes
// the live pruning threshold lock-free: workers read it before every
// candidate, across every shard of a sharded database.
type rankedCollector interface {
	// offer records one exactly-scored item, tightening the threshold.
	offer(it topk.Item)
	// threshold is the current bar: a candidate whose score provably
	// exceeds it can never enter the answer. Monotone non-increasing.
	threshold() float64
	// seedUppers hands the collector one snapshot's per-candidate
	// upper bounds on the reported score (the pessimistic corner of
	// the bound index), BEFORE any of them is evaluated. A top-k
	// collector floors its threshold at the k-th smallest: the k best
	// reported scores each sit under one of the k smallest uppers, so
	// any candidate provably above that floor can never make the
	// answer — pruning starts tight instead of waiting for k exact
	// scores. Sound per shard snapshot (a subset's k-th best is never
	// below the global k-th best). Range collectors ignore it (their
	// threshold is the radius, fixed).
	seedUppers(his []float64)
	// items returns the collected answer (order documented per kind).
	items() []topk.Item
}

// topkCollector keeps the k best items in a bounded max-heap; the
// threshold is the k-th best score once k items are held, floored by
// the best seedUppers bound (+Inf before either exists).
type topkCollector struct {
	mu    sync.Mutex
	k     int
	b     *topk.Bounded
	th    atomicFloat
	floor atomicFloat
}

func newTopkCollector(k int) *topkCollector {
	c := &topkCollector{k: k, b: topk.NewBounded(k)}
	c.th.store(math.Inf(1))
	c.floor.store(math.Inf(1))
	return c
}

func (c *topkCollector) offer(it topk.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.Offer(it)
	if c.b.Full() {
		if w, ok := c.b.Worst(); ok {
			c.th.store(w.Score)
		}
	}
}

func (c *topkCollector) seedUppers(his []float64) {
	if len(his) < c.k {
		return // fewer candidates than k: this snapshot bounds nothing
	}
	sorted := append([]float64(nil), his...)
	sort.Float64s(sorted)
	v := sorted[c.k-1]
	c.mu.Lock()
	if v < c.floor.load() {
		c.floor.store(v)
	}
	c.mu.Unlock()
}

func (c *topkCollector) threshold() float64 {
	t := c.th.load()
	if f := c.floor.load(); f < t {
		return f
	}
	return t
}

// items returns the k best in ascending (score, ID) order — exactly
// topk.Select's order.
func (c *topkCollector) items() []topk.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.Items()
}

// rangeCollector keeps every item within the radius; the threshold is
// the radius itself, fixed for the whole query.
type rangeCollector struct {
	radius float64
	mu     sync.Mutex
	list   []topk.Item
}

func newRangeCollector(radius float64) *rangeCollector {
	return &rangeCollector{radius: radius, list: []topk.Item{}}
}

func (c *rangeCollector) offer(it topk.Item) {
	if it.Score > c.radius {
		return // evaluated, but outside the radius
	}
	c.mu.Lock()
	c.list = append(c.list, it)
	c.mu.Unlock()
}

func (c *rangeCollector) threshold() float64 { return c.radius }

// seedUppers is a no-op: the range threshold is the radius itself.
func (c *rangeCollector) seedUppers([]float64) {}

// items returns the in-radius items in unspecified order; callers
// restore insertion order (evaluation order is nondeterministic).
func (c *rangeCollector) items() []topk.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]topk.Item{}, c.list...)
}

// Ranked is one in-progress best-first ranked query: the shared
// collector and its live threshold. Shards of a sharded database (and
// cached per-shard answers) evaluate against a single Ranked value so
// the threshold crosses shard boundaries. Safe for concurrent use.
type Ranked struct {
	m    measure.Measure
	coll rankedCollector

	sigOnce sync.Once
	qsig    *measure.Signature
	qhOnce  sync.Once
	qh      string
}

// NewRankedTopK starts a top-k evaluation under measure m.
func NewRankedTopK(m measure.Measure, k int) *Ranked {
	return &Ranked{m: m, coll: newTopkCollector(k)}
}

// NewRankedRange starts a range evaluation under measure m.
func NewRankedRange(m measure.Measure, radius float64) *Ranked {
	return &Ranked{m: m, coll: newRangeCollector(radius)}
}

// Offer feeds already-exact scores — e.g. the rows of a cached complete
// vector table — into the collector, tightening the live threshold
// before (or while) other shards evaluate.
func (r *Ranked) Offer(items []topk.Item) {
	for _, it := range items {
		r.coll.offer(it)
	}
}

func (r *Ranked) querySig(q *graph.Graph) *measure.Signature {
	r.sigOnce.Do(func() { r.qsig = measure.NewSignature(q) })
	return r.qsig
}

func (r *Ranked) queryHash(q *graph.Graph) string {
	r.qhOnce.Do(func() { r.qh = graph.QueryHash(q) })
	return r.qh
}

// EvalDB runs the best-first scan of one database's snapshot against
// the shared threshold. opts.Workers bounds the scan's parallelism
// (resolved by the caller); opts.Eval caps the exact engines exactly as
// on the full-scan path, so included scores match it byte for byte.
func (r *Ranked) EvalDB(ctx context.Context, db *DB, q *graph.Graph, opts QueryOptions) (QueryStats, error) {
	sn := db.snapshot()
	qsig := r.querySig(q)
	if opts.QueryHash == "" && db.Memo() != nil {
		// Canonicalize once per query, not once per shard: the Ranked
		// value is shared by all shards of one query.
		opts.QueryHash = r.queryHash(q)
	}
	ec := db.newEvalCtx(q, qsig, opts, true)
	return evalRanked(ctx, sn, qsig, q, r.m, opts, ec, db.startVector(sn, qsig, q, r.m, ec), r.coll)
}

// evalRanked is the scan itself: order candidates by optimistic bound,
// drain them with a worker pool, stop at the threshold. ec (nil-safe)
// adds the pivot tier — tighter optimistic bounds, so the scan claims
// true near-neighbors earlier and the cutoff fires sooner — and the
// score memo, which replays recorded pair scores without any engine
// work.
//
// vs (nil-safe) adds the vector tier below all of that: instead of
// bounding every candidate up front, the scan drains the partition's
// inverted lists as batches, nearest-and-most-promising cell first
// (ascending by admissible floor, then centroid proximity). Each batch
// pays tier-0 bounding only for its own members, so the threshold —
// seeded from the pessimistic corners probed so far and tightened by
// every exact score — is already tight when the far cells come up; the
// moment the next cell's floor exceeds the live threshold, that cell
// and every cell after it are excluded wholesale, without touching a
// single signature. Exclusion always carries a proof (the floor is
// admissible for every member), so the answer — scores and tie-order —
// is byte-identical to the plain scan.
//
// The returned stats carry the scan's Work and Inexact; Duration is the
// caller's to stamp.
func evalRanked(ctx context.Context, sn snap, qsig *measure.Signature, q *graph.Graph, m measure.Measure, opts QueryOptions, ec *evalCtx, vs *vecState, coll rankedCollector) (QueryStats, error) {
	n := len(sn.graphs)
	if n == 0 {
		return QueryStats{}, nil
	}

	trace := opts.Trace
	var stats QueryStats

	// Tier −1: the probe plan. With a live vector state the batches are
	// the partition's cells in ascending (floor, centroid distance)
	// order; otherwise one batch holds every candidate and the scan
	// below degenerates to exactly the plain pass.
	vsActive := vs != nil && len(vs.batches) > 0
	var batches []vecBatch
	if vsActive {
		batches = vs.batches
	} else {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		batches = []vecBatch{{members: all, floor: math.Inf(-1)}}
	}
	if vs != nil && vs.fallback {
		stats.VectorFallbacks = 1
	}

	bounds := make([]measure.BoundStats, n)
	los := make([]float64, n)
	sigLos := los
	attribute := ec != nil && ec.pb != nil
	if attribute {
		sigLos = make([]float64, n)
	}
	his := make([]float64, n)
	// probed marks candidates whose tier-0 bounds were computed; allHis
	// accumulates their pessimistic corners for threshold seeding.
	probed := make([]bool, n)
	allHis := make([]float64, 0, n)
	// fate records how each claimed candidate left the scan. An element
	// is written only by the one worker that claimed the candidate and
	// read after the pool has drained, so plain bytes suffice.
	const (
		fateOpen     uint8 = iota // never claimed (or never even bounded)
		fateScored                // exact score computed or replayed
		fateInexact               // scored, from a capped engine's bound
		fateExcluded              // an engine decision run proved it out
		fateRefined               // out by its refined interval, no engine run
	)
	fate := make([]uint8, n)

	needGED, needMCS := measure.EngineNeeds(m)
	useMemo := ec != nil && ec.memo != nil && (needGED || needMCS)

	var (
		pivotDur time.Duration
		canceled bool
	)
	for b := range batches {
		if ctx.Err() != nil {
			return QueryStats{}, ctx.Err()
		}
		// The admissibility guard: every member of this cell is provably
		// at least floor away, and batches ascend by floor — once the
		// live threshold drops below it, this cell and every remaining
		// one hold nothing that can enter the answer. Their members stay
		// unprobed, which is how the attribution pass recognizes them.
		if batches[b].floor > coll.threshold() {
			break
		}
		if vsActive {
			stats.VectorCells++
		}
		mem := batches[b].members

		// Tier 0: bound this batch's candidates from their stored
		// signatures, tightened by the pivot tier, and order by the
		// optimistic end. sigLos keeps the signature-only optimistic
		// bound for attribution.
		var tierStart time.Time
		var batchPivot time.Duration
		if trace != nil {
			tierStart = time.Now()
		}
		for _, i := range mem {
			bounds[i] = measure.BoundPair(sn.sigs[i], qsig)
			if attribute {
				sigLos[i], _ = bounds[i].Interval(m)
				if trace != nil {
					// The triangle arithmetic is the pivot stage's time,
					// not the bound stage's.
					t0 := time.Now()
					ec.tighten(&bounds[i], sn.graphs[i].Name())
					batchPivot += time.Since(t0)
				} else {
					ec.tighten(&bounds[i], sn.graphs[i].Name())
				}
			}
			los[i], his[i] = bounds[i].Interval(m)
			probed[i] = true
			allHis = append(allHis, his[i])
		}
		pivotDur += batchPivot
		// Claim order: by the optimistic end — which is what lets the scan
		// STOP at the first claim whose lo exceeds the threshold
		// (everything after in this batch is at least as hopeless) — with
		// lo ties broken by the pessimistic end. Distances are integral,
		// so lo ties are the common case, and within a tie the candidate
		// that is CERTAINLY near (small hi) should feed the threshold
		// before one that is merely possibly near; remaining ties keep
		// snapshot order, for a deterministic claim sequence. The answer
		// itself is order-independent — exclusion always carries a proof.
		order := append([]int(nil), mem...)
		sort.SliceStable(order, func(a, b int) bool {
			la, lb := los[order[a]], los[order[b]]
			if la != lb {
				return la < lb
			}
			return his[order[a]] < his[order[b]]
		})
		// Seed the threshold from every pessimistic corner probed so far:
		// the k best reported scores each sit under one of the k smallest
		// uppers (tier-0 uppers already bracket what the capped engines
		// report; the pivot tier tightens them further when the GED engine
		// is uncapped), so the scan runs against a real bar instead of
		// +Inf — and each batch tightens it further before the next floor
		// check.
		coll.seedUppers(allHis)
		if trace != nil {
			// Bounding, ordering and threshold seeding are bound-stage
			// work; the stage's pruned count (threshold cutoff plus
			// candidates the signature bound condemns) is counted after
			// the scan.
			trace.Observe(StageBound, time.Since(tierStart)-batchPivot, len(mem), 0)
		}

		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		if workers > len(order) {
			workers = len(order)
		}
		var (
			wg         sync.WaitGroup
			cursor     atomic.Int64
			stopped    atomic.Bool
			cancelFlag atomic.Bool
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// stopped only says "claim no more", so it is read
					// BEFORE claiming: a candidate already claimed when a
					// later, more hopeless claim trips the flag bounds
					// lower than that one and still gets its own
					// threshold check below — dropping it unchecked would
					// lose a possible answer.
					if stopped.Load() {
						return
					}
					k := int(cursor.Add(1)) - 1
					if k >= len(order) {
						return
					}
					if ctx.Err() != nil {
						cancelFlag.Store(true)
						stopped.Store(true)
						return
					}
					i := order[k]
					name := sn.graphs[i].Name()
					if los[i] > coll.threshold() {
						// Candidates are claimed in optimistic-bound order:
						// everything after this one in the batch is at
						// least as hopeless. (Later batches still get
						// their floor check — their members may bound
						// lower individually.)
						stopped.Store(true)
						return
					}
					var t0 time.Time
					if trace != nil {
						t0 = time.Now()
					}
					// Memo replay: a recorded pair score skips refinement and
					// the engines entirely. The replayed score is exact, so
					// the replay counts as exact-stage work.
					if useMemo {
						if r, ok := ec.memoGet(sn.seqs[i], needGED, needMCS); ok {
							ps := measure.PairStatsFrom(sn.sigs[i], qsig, r)
							fate[i] = fateScored
							if (needGED && !r.GEDExact) || (needMCS && !r.MCSExact) {
								fate[i] = fateInexact
							}
							coll.offer(topk.Item{ID: name, Score: m.FromStats(ps)})
							if trace != nil {
								trace.Observe(StageExact, time.Since(t0), 1, 0)
							}
							continue
						}
					}
					// Tier 1: polynomial refinement, witnesses kept for the
					// engines.
					var wit *measure.Witness
					bounds[i], wit = measure.RefineWitness(sn.graphs[i], q, bounds[i])
					// One threshold reading serves the refine tier's check
					// and the engines below, so a candidate the interval
					// already condemns is the refine stage's, never an
					// "exact" exclusion that ran no engine. Refinement
					// narrows only the pessimistic end, so this fires just
					// when another worker tightened the bar after the claim.
					th := coll.threshold()
					if lo, _ := bounds[i].Interval(m); lo > th {
						fate[i] = fateRefined
						if trace != nil {
							trace.Observe(StageRefine, time.Since(t0), 1, 1)
						}
						continue
					}
					if trace != nil {
						trace.Observe(StageRefine, time.Since(t0), 1, 0)
						t0 = time.Now()
					}
					hints := measure.PairHints{Sig1: sn.sigs[i], Sig2: qsig, Witness: wit}
					// Tier 2: threshold-fed evaluation — an engine decision
					// run excludes, or a plain exact run scores.
					score, got, excluded, capped := measure.ComputeRankResults(sn.graphs[i], q, m, th, bounds[i], opts.Eval, hints)
					if excluded {
						fate[i] = fateExcluded
						if trace != nil {
							trace.Observe(StageExact, time.Since(t0), 1, 1)
						}
						continue
					}
					ec.memoPublish(sn.seqs[i], got)
					fate[i] = fateScored
					if capped {
						fate[i] = fateInexact
					}
					coll.offer(topk.Item{ID: name, Score: score})
					if trace != nil {
						trace.Observe(StageExact, time.Since(t0), 1, 0)
					}
				}
			}()
		}
		wg.Wait()
		if cancelFlag.Load() {
			canceled = true
			break
		}
	}
	if canceled {
		return QueryStats{}, ctx.Err()
	}
	// Attribution by counting: every candidate has exactly one fate, so
	// Pruned, its pivot and vector shares and every stage's pruned count
	// are sums over the same partition of the snapshot. A candidate that
	// was not scored was, in this order: never bounded (a skipped cell —
	// the vector tier's), out by its refined interval or excluded by an
	// engine decision run (the refine and exact stages', each observed
	// on the trace as it happened), condemned at the
	// final threshold by the merged optimistic bound where the signature
	// bound alone would have let it through (the pivot tier's), or
	// otherwise cut off by the signature bound and the best-first
	// threshold (the bound stage's).
	th := coll.threshold()
	boundPruned := 0
	for i := range fate {
		if fate[i] == fateScored || fate[i] == fateInexact {
			stats.Evaluated++
			if fate[i] == fateInexact {
				stats.Inexact++
			}
			continue
		}
		stats.Pruned++
		switch {
		case !probed[i]:
			stats.VectorSkipped++
		case fate[i] == fateExcluded || fate[i] == fateRefined:
		case attribute && los[i] > th && sigLos[i] <= th:
			stats.PivotPruned++
		default:
			boundPruned++
		}
	}
	stats.Work.Add(ec.work())
	if trace != nil {
		if vs != nil {
			trace.Observe(StageVector, vs.planDur, n, stats.VectorSkipped)
		}
		if attribute {
			trace.Observe(StagePivot, pivotDur, n, stats.PivotPruned)
		}
		trace.Observe(StageBound, 0, 0, boundPruned)
	}
	return stats, nil
}
