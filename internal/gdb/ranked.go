package gdb

import (
	"cmp"
	"context"
	"math"
	"slices"
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
// candidate is provably out and the scan stops. A candidate the bound
// cannot settle meets tier 1 when the measure reads GED: the branch
// lower bound (measure.Signature.BranchLB) raises the optimistic end of
// its interval, and proves most claimed candidates out with no engine
// run. The rest go to a threshold-fed decision run of the exact engines
// (ged.Options.Limit / mcs.Options.Need), which discards most survivors
// without paying for exactness, and a plain exact evaluation only for
// candidates that might make the answer. Tier 1 narrows the optimistic
// end because that is the end every cutoff reads; a refinement of the
// pessimistic end (bipartite GED, greedy MCS) never prunes against a
// best-first threshold and cost more than the decision runs it spared,
// so there is none. Included scores are byte-identical to a complete
// table's column, so the answer — scores and tie-order — matches
// ranking every graph exactly. It is the one evaluation path of
// TopKQuery and RangeQuery.

// atomicFloat is a lock-free float64 cell (stored as bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// rankedCollector accumulates exact scores behind a mutex and exposes
// the live pruning threshold lock-free: workers read it before every
// candidate, across every shard of a sharded database. Safe for
// concurrent use.
type rankedCollector interface {
	// offer records one exactly-scored item, tightening the threshold.
	offer(it topk.Item)
	// threshold is the current bar: a candidate whose score provably
	// exceeds it can never enter the answer. Monotone non-increasing.
	threshold() float64
	// floorK is how many of a snapshot's smallest score upper bounds
	// (pessimistic corners of the bound index) the collector's floor
	// reads: k for top-k, 0 for range — its threshold is the radius,
	// fixed — and the scan then keeps no bounded heap at all.
	floorK() int
	// seedFloor hands the collector the floorK-th smallest upper bound
	// probed so far, BEFORE those candidates are evaluated. A top-k
	// collector floors its threshold there: the k best reported scores
	// each sit under one of the k smallest uppers, so any candidate
	// provably above that floor can never make the answer — pruning
	// starts tight instead of waiting for k exact scores. Sound per
	// shard snapshot (a subset's k-th best is never below the global
	// k-th best).
	seedFloor(v float64)
	// items returns the collected answer (order documented per kind).
	items() []topk.Item
}

// topkCollector keeps the k best items in a bounded max-heap; the
// threshold is the k-th best score once k items are held, floored by
// the lowest seedFloor value (+Inf before either exists).
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

func (c *topkCollector) floorK() int { return c.k }

func (c *topkCollector) seedFloor(v float64) {
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

// A range collector takes no floor: its threshold is the radius itself.
func (c *rangeCollector) floorK() int       { return 0 }
func (c *rangeCollector) seedFloor(float64) {}

// items returns the in-radius items in unspecified order; callers
// restore insertion order (evaluation order is nondeterministic).
func (c *rangeCollector) items() []topk.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]topk.Item{}, c.list...)
}

// kSmallest keeps the k smallest values it is fed in a bounded
// max-heap (the root is the largest kept), so the k-th smallest of
// everything fed so far is one read away. The ranked scan feeds it each
// candidate's upper bound once, as the candidate is bounded: O(n log k)
// per scan, however many vector batches read the floor.
type kSmallest struct {
	k int
	h []float64
}

func (s *kSmallest) push(v float64) {
	if s.k < 1 {
		return
	}
	h := s.h
	if len(h) < s.k {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] >= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		s.h = h
		return
	}
	if v >= h[0] {
		return
	}
	h[0] = v
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// kth returns the k-th smallest value fed so far; ok is false until k
// values have been fed (fewer candidates than k bound nothing).
func (s *kSmallest) kth() (v float64, ok bool) {
	if s.k < 1 || len(s.h) < s.k {
		return 0, false
	}
	return s.h[0], true
}

// scanRanked runs the best-first scan of one shard's snapshot against
// the collector every shard of the query shares, so the threshold
// crosses shard boundaries. opts.Workers bounds the scan's parallelism
// (resolved by the caller); opts.Eval caps the exact engines exactly as
// a table build does, so included scores match its columns byte for
// byte.
func (db *DB) scanRanked(ctx context.Context, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions, coll rankedCollector) (QueryStats, error) {
	sn := db.snapshot(true)
	ec := db.newEvalCtx(q, qsig, opts, sn.cols)
	return evalRanked(ctx, sn, qsig, q, m, opts, ec, db.startVector(sn, qsig, q, m, ec), coll)
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
	// probed marks candidates whose tier-0 bounds were computed; uppers
	// keeps the smallest of their pessimistic corners for threshold
	// seeding.
	probed := make([]bool, n)
	uppers := kSmallest{k: coll.floorK()}
	order := make([]int, 0, n)
	// fate records how each claimed candidate left the scan. An element
	// is written only by the one worker that claimed the candidate and
	// read after the pool has drained, so plain bytes suffice.
	const (
		fateOpen     uint8 = iota // never claimed (or never even bounded)
		fateScored                // exact score computed or replayed
		fateInexact               // scored, from a capped engine's bound
		fateExcluded              // an engine decision run proved it out
		fateBounded               // the branch bound proved it out (tier 1)
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
			los[i], his[i] = bounds[i].Interval(m)
			if attribute {
				sigLos[i] = los[i]
				var t0 time.Time
				if trace != nil {
					// The triangle arithmetic is the pivot stage's time,
					// not the bound stage's.
					t0 = time.Now()
				}
				if ec.tighten(&bounds[i], sn.graphs[i].Name()) {
					los[i], his[i] = bounds[i].Interval(m)
				}
				if trace != nil {
					batchPivot += time.Since(t0)
				}
			}
			probed[i] = true
			uppers.push(his[i])
		}
		pivotDur += batchPivot
		// Seed the threshold from every pessimistic corner probed so far:
		// the k best reported scores each sit under one of the k smallest
		// uppers (tier-0 uppers already bracket what the capped engines
		// report; the pivot tier tightens them further when the GED engine
		// is uncapped), so the scan runs against a real bar instead of
		// +Inf — and each batch tightens it further before the next floor
		// check.
		if v, ok := uppers.kth(); ok {
			coll.seedFloor(v)
		}
		// Claim order: by the optimistic end — which is what lets the scan
		// STOP at the first claim whose lo exceeds the threshold
		// (everything after in this batch is at least as hopeless) — with
		// lo ties broken by the pessimistic end. Distances are integral,
		// so lo ties are the common case, and within a tie the candidate
		// that is CERTAINLY near (small hi) should feed the threshold
		// before one that is merely possibly near; remaining ties keep
		// snapshot order, for a deterministic claim sequence (batch members
		// ascend by snapshot index, so the index tie-break is the stable
		// order). Only candidates whose lo fits the seeded threshold are
		// sorted at all: the threshold never rises, so the rest could
		// never be claimed — they stay unclaimed and are attributed after
		// the scan like any other cut-off candidate. The answer itself is
		// order-independent — exclusion always carries a proof.
		th0 := coll.threshold()
		order = order[:0]
		for _, i := range mem {
			if los[i] <= th0 {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(los[a], los[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(his[a], his[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
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
					// One threshold reading serves the cutoff and the
					// engines below, so a candidate the interval already
					// condemns is always the cutoff's, never an "exact"
					// exclusion that ran no engine.
					th := coll.threshold()
					if los[i] > th {
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
					// Memo replay: a recorded pair score skips the engines
					// entirely. The replayed score is exact, so
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
					// Tier 1: the branch bound raises the optimistic end of
					// the GED interval. A candidate it lifts above the
					// threshold is out with no engine run; otherwise the
					// raised GEDLo narrows the decision run's plan. A
					// candidate whose pessimistic end already fits is
					// certainly in, so there is nothing to prove.
					if needGED && his[i] > th {
						if lb := sn.sigs[i].BranchLB(qsig); lb > bounds[i].GEDLo {
							bounds[i].GEDLo = lb
							if lo, _ := bounds[i].Interval(m); lo > th {
								fate[i] = fateBounded
								if trace != nil {
									trace.Observe(StageBound, time.Since(t0), 0, 0)
								}
								continue
							}
						}
						if trace != nil {
							t1 := time.Now()
							trace.Observe(StageBound, t1.Sub(t0), 0, 0)
							t0 = t1
						}
					}
					// Threshold-fed evaluation: an engine decision run
					// excludes, or a plain exact run scores.
					score, got, excluded, capped := measure.ComputeRankResults(sn.graphs[i], q, m, th, bounds[i], opts.Eval)
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
	// the vector tier's), excluded by an engine decision run (the exact
	// stage's, observed on the trace as it happened), proved out by the
	// branch bound at its claim (the bound stage's), condemned at the
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
		case fate[i] == fateExcluded:
		case fate[i] == fateBounded:
			boundPruned++
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
