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
// the live pruning threshold lock-free: the scan's workers read it
// before every candidate. Safe for concurrent use.
type rankedCollector interface {
	// offer records one exactly-scored item, the snapshot's pos-th
	// graph, tightening the threshold.
	offer(pos int, it topk.Item)
	// threshold is the current bar: a candidate whose score provably
	// exceeds it can never enter the answer. Monotone non-increasing.
	threshold() float64
	// floorK is how many of a snapshot's smallest score upper bounds
	// (pessimistic corners of the bound index) the collector's floor
	// reads: k for top-k, 0 for range — its threshold is the radius,
	// fixed — and the scan then keeps no bounded heap at all.
	floorK() int
	// seedFloor hands the collector the floorK-th smallest upper bound
	// of the snapshot, once and before any offer. A top-k collector
	// starts its threshold there: the k best reported scores each sit
	// under one of the k smallest uppers, so any candidate provably
	// above that floor can never make the answer — pruning starts tight
	// instead of waiting for k exact scores.
	seedFloor(v float64)
	// items returns the collected answer (order documented per kind).
	items() []topk.Item
}

// topkCollector keeps the k best items in a bounded max-heap; the
// threshold starts at the seeded floor (+Inf without one) and drops to
// the k-th best score once k items are held and that is lower.
type topkCollector struct {
	mu sync.Mutex
	k  int
	b  *topk.Bounded
	th atomicFloat
}

func newTopkCollector(k int) *topkCollector {
	c := &topkCollector{k: k, b: topk.NewBounded(k)}
	c.th.store(math.Inf(1))
	return c
}

func (c *topkCollector) offer(_ int, it topk.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.Offer(it)
	if c.b.Full() {
		if w, ok := c.b.Worst(); ok && w.Score < c.th.load() {
			c.th.store(w.Score)
		}
	}
}

func (c *topkCollector) floorK() int { return c.k }

func (c *topkCollector) seedFloor(v float64) { c.th.store(v) }

func (c *topkCollector) threshold() float64 { return c.th.load() }

// items returns the k best in ascending (score, ID) order — exactly
// topk.Select's order.
func (c *topkCollector) items() []topk.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.Items()
}

// rangeCollector keeps every item within the radius with its snapshot
// position; the threshold is the radius itself, fixed for the whole
// query.
type rangeCollector struct {
	radius float64
	mu     sync.Mutex
	list   []rangeHit
}

type rangeHit struct {
	pos int
	it  topk.Item
}

func newRangeCollector(radius float64) *rangeCollector {
	return &rangeCollector{radius: radius}
}

func (c *rangeCollector) offer(pos int, it topk.Item) {
	if it.Score > c.radius {
		return // evaluated, but outside the radius
	}
	c.mu.Lock()
	c.list = append(c.list, rangeHit{pos, it})
	c.mu.Unlock()
}

func (c *rangeCollector) threshold() float64 { return c.radius }

// A range collector takes no floor: its threshold is the radius itself.
func (c *rangeCollector) floorK() int       { return 0 }
func (c *rangeCollector) seedFloor(float64) {}

// items returns the in-radius items in snapshot (insertion) order,
// whatever order the scan evaluated them in.
func (c *rangeCollector) items() []topk.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.SortFunc(c.list, func(a, b rangeHit) int { return cmp.Compare(a.pos, b.pos) })
	out := make([]topk.Item, len(c.list))
	for i, h := range c.list {
		out[i] = h.it
	}
	return out
}

// kSmallest keeps the k smallest values it is fed in a bounded
// max-heap (the root is the largest kept), so the k-th smallest of
// everything fed so far is one read away. The ranked scan feeds it each
// candidate's upper bound once, as the candidate is bounded: O(n log k)
// per scan.
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

// evalRanked is the scan itself: bound every candidate from its stored
// signature (tier 0), seed the threshold from the pessimistic ends,
// order the candidates that fit it by optimistic bound, drain them with
// one pool of opts.Workers workers — tier 1, then the engines — and stop
// at the threshold.
// ec (nil-safe) adds the score memo, which replays recorded pair scores
// without any engine work.
//
// The returned stats carry the scan's Work and Inexact; Duration is the
// caller's to stamp.
func evalRanked(ctx context.Context, sn snap, qsig *measure.Signature, q *graph.Graph, m measure.Measure, opts QueryOptions, ec *evalCtx, coll rankedCollector) (QueryStats, error) {
	n := len(sn.graphs)
	if n == 0 {
		return QueryStats{}, nil
	}
	if ctx.Err() != nil {
		return QueryStats{}, ctx.Err()
	}
	trace := opts.Trace
	var tierStart time.Time
	if trace != nil {
		tierStart = time.Now()
	}

	// Tier 0: bound every candidate from its stored signature; uppers
	// keeps the smallest pessimistic ends for threshold seeding.
	bounds := make([]measure.BoundStats, n)
	los := make([]float64, n)
	his := make([]float64, n)
	uppers := kSmallest{k: coll.floorK()}
	for i := range n {
		bounds[i] = measure.BoundPair(sn.sigs[i], qsig)
		los[i], his[i] = bounds[i].Interval(m)
		uppers.push(his[i])
	}
	// Seed the threshold from the pessimistic corners: the k best
	// reported scores each sit under one of the k smallest uppers (tier-0
	// uppers bracket what the capped engines report), so the scan runs
	// against a real bar instead of +Inf.
	if v, ok := uppers.kth(); ok {
		coll.seedFloor(v)
	}
	// Claim order: by the optimistic end — which is what lets the scan
	// STOP at the first claim whose lo exceeds the threshold (everything
	// after it is at least as hopeless) — with lo ties broken by the
	// pessimistic end. Distances are integral, so lo ties are the common
	// case, and within a tie the candidate that is CERTAINLY near (small
	// hi) should feed the threshold before one that is merely possibly
	// near; remaining ties go by insert sequence. Only candidates whose lo fits the seeded
	// threshold are sorted at all: the threshold never rises, so the rest
	// could never be claimed — they stay unclaimed and are attributed
	// after the scan like any other cut-off candidate. The answer itself
	// is order-independent — exclusion always carries a proof.
	th0 := coll.threshold()
	order := make([]int, 0, n)
	for i := range n {
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
		return cmp.Compare(sn.seqs[a], sn.seqs[b])
	})
	if trace != nil {
		// Bounding, ordering and threshold seeding are bound-stage work;
		// the stage's pruned count (tier 1 plus the threshold cutoff) is
		// counted after the scan.
		trace.Observe(StageBound, time.Since(tierStart), n, 0)
	}

	// fate records how each candidate left the scan. An element is
	// written only by the one worker that claimed the candidate and read
	// after the pool has drained, so plain bytes suffice.
	const (
		fateOpen     uint8 = iota // never claimed: cut off by the threshold
		fateScored                // exact score computed or replayed
		fateInexact               // scored, from a capped engine's bound
		fateExcluded              // an engine decision run proved it out
		fateBounded               // the branch bound proved it out (tier 1)
	)
	fate := make([]uint8, n)

	needGED, needMCS := measure.EngineNeeds(m)
	useMemo := ec != nil && ec.memo != nil && (needGED || needMCS)

	// A claim returning false stops the pool. A candidate another worker
	// already claimed bounds lower than the one that stopped it and still
	// gets its own threshold check — dropping it unchecked would lose a
	// possible answer.
	err := forEachClaim(ctx, len(order), opts.Workers, func(k int) bool {
		i := order[k]
		name := sn.graphs[i].Name()
		// One threshold reading serves the cutoff and the engines below,
		// so a candidate the interval already condemns is always the
		// cutoff's, never an "exact" exclusion that ran no engine.
		th := coll.threshold()
		if los[i] > th {
			// Candidates are claimed in optimistic-bound order:
			// everything after this one is at least as hopeless.
			return false
		}
		var t0 time.Time
		if trace != nil {
			t0 = time.Now()
		}
		// Memo replay: a recorded pair score skips the engines entirely.
		// The replayed score is exact, so the replay counts as
		// exact-stage work.
		if useMemo {
			if r, ok := ec.memoGet(sn.seqs[i], needGED, needMCS); ok {
				ps := measure.PairStatsFrom(sn.sigs[i], qsig, r)
				fate[i] = fateScored
				if (needGED && !r.GEDExact) || (needMCS && !r.MCSExact) {
					fate[i] = fateInexact
				}
				coll.offer(i, topk.Item{ID: name, Score: m.FromStats(ps)})
				if trace != nil {
					trace.Observe(StageExact, time.Since(t0), 1, 0)
				}
				return true
			}
		}
		// Tier 1: the branch bound raises the optimistic end of the GED
		// interval. A candidate it lifts above the threshold is out with
		// no engine run; otherwise the raised GEDLo narrows the decision
		// run's plan. A candidate whose pessimistic end already fits is
		// certainly in, so there is nothing to prove.
		if needGED && his[i] > th {
			if lb := sn.sigs[i].BranchLB(qsig); lb > bounds[i].GEDLo {
				bounds[i].GEDLo = lb
				if lo, _ := bounds[i].Interval(m); lo > th {
					fate[i] = fateBounded
					if trace != nil {
						trace.Observe(StageBound, time.Since(t0), 0, 0)
					}
					return true
				}
			}
			if trace != nil {
				t1 := time.Now()
				trace.Observe(StageBound, t1.Sub(t0), 0, 0)
				t0 = t1
			}
		}
		// Threshold-fed evaluation: an engine decision run excludes, or
		// a plain exact run scores.
		score, got, excluded, capped := measure.ComputeRankResults(sn.graphs[i], q, m, th, bounds[i], opts.Eval)
		if excluded {
			fate[i] = fateExcluded
			if trace != nil {
				trace.Observe(StageExact, time.Since(t0), 1, 1)
			}
			return true
		}
		ec.memoPublish(sn.seqs[i], got)
		fate[i] = fateScored
		if capped {
			fate[i] = fateInexact
		}
		coll.offer(i, topk.Item{ID: name, Score: score})
		if trace != nil {
			trace.Observe(StageExact, time.Since(t0), 1, 0)
		}
		return true
	})
	if err != nil {
		return QueryStats{}, err
	}
	// Attribution by counting: every candidate has exactly one fate, so
	// Pruned and every stage's pruned count are sums over the same
	// partition of the snapshot. A candidate that was not scored was
	// either excluded by an engine decision run (the exact stage's,
	// observed on the trace as it happened) or proved out by the branch
	// bound at its claim or cut off by the signature bound and the
	// best-first threshold (both the bound stage's).
	var stats QueryStats
	boundPruned := 0
	for _, f := range fate {
		switch f {
		case fateScored, fateInexact:
			stats.Evaluated++
			if f == fateInexact {
				stats.Inexact++
			}
		case fateExcluded:
			stats.Pruned++
		default:
			stats.Pruned++
			boundPruned++
		}
	}
	stats.Work.Add(ec.work())
	trace.Observe(StageBound, 0, 0, boundPruned)
	return stats, nil
}
