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
// candidate is provably out and the scan stops. Tier 0 computes only
// the ranking measure's interval (measure.RankInterval) into plain
// columns, and the candidates come off a heap in claim order, so a scan
// that stops early pays neither for statistics its measure never reads
// nor for ordering candidates it never reaches; the full interval
// statistics (measure.BoundPair) are built only for a candidate that
// reaches the engines. A candidate the bound cannot settle meets tier 1
// when the measure reads GED: the branch lower bound, read from the
// query's branch table (measure.BranchTable), raises the optimistic end
// of its interval, and proves most claimed candidates out with no
// engine run. The rest go to a threshold-fed decision run of the exact
// engines (ged.Options.Limit / mcs.Options.Need), which discards most
// survivors without paying for exactness, and a plain exact evaluation
// only for candidates that might make the answer. Tier 1 narrows the
// optimistic end because that is the end every cutoff reads; a
// refinement of the pessimistic end (bipartite GED, greedy MCS) never
// prunes against a best-first threshold and cost more than the decision
// runs it spared, so there is none. Included scores are byte-identical
// to a complete table's column, so the answer — scores and tie-order —
// matches ranking every graph exactly. It is the one evaluation path of
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

// claimHeap hands the admitted candidates to the scan's workers in
// claim order, one pop at a time under its mutex: ascending optimistic
// end (lo), lo ties by pessimistic end (hi), remaining ties by insert
// sequence. Sequences are unique, so the order is total and popping the
// whole heap yields exactly the sorted order. Heapifying is O(n), and
// the scan usually stops after popping a small share of the candidates,
// where a full sort paid O(n log n) for all of them.
type claimHeap struct {
	mu     sync.Mutex
	idx    []int // candidate indices, a binary min-heap under compare
	lo, hi []float64
	seqs   []uint64
}

// newClaimHeap heapifies idx in place over the lo, hi and seqs columns
// (indexed like the snapshot).
func newClaimHeap(idx []int, lo, hi []float64, seqs []uint64) *claimHeap {
	h := &claimHeap{idx: idx, lo: lo, hi: hi, seqs: seqs}
	for i := len(idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// compare orders candidates a and b by claim order.
func (h *claimHeap) compare(a, b int) int {
	if c := cmp.Compare(h.lo[a], h.lo[b]); c != 0 {
		return c
	}
	if c := cmp.Compare(h.hi[a], h.hi[b]); c != 0 {
		return c
	}
	return cmp.Compare(h.seqs[a], h.seqs[b])
}

// down restores the heap property below position i.
func (h *claimHeap) down(i int) {
	idx := h.idx
	for {
		c := 2*i + 1
		if c >= len(idx) {
			return
		}
		if c+1 < len(idx) && h.compare(idx[c+1], idx[c]) < 0 {
			c++
		}
		if h.compare(idx[c], idx[i]) >= 0 {
			return
		}
		idx[i], idx[c] = idx[c], idx[i]
		i = c
	}
}

// pop removes and returns the first candidate in claim order; ok is
// false once the heap is empty.
func (h *claimHeap) pop() (i int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.idx)
	if n == 0 {
		return 0, false
	}
	i = h.idx[0]
	h.idx[0] = h.idx[n-1]
	h.idx = h.idx[:n-1]
	h.down(0)
	return i, true
}

// How a candidate left the ranked scan.
const (
	fateOpen     uint8 = iota // never settled: cut off by the threshold
	fateScored                // exact score computed
	fateInexact               // scored, from a capped engine's bound
	fateExcluded              // an engine decision run proved it out
	fateBounded               // the branch bound proved it out (tier 1)
)

// rankScan is the ranked scan over one snapshot. The tier-0 columns are
// indexed like the snapshot and read-only once built; an element of
// fate is written only by the one settle call of its candidate and
// read after the scan.
type rankScan struct {
	sn   snap
	q    *graph.Graph
	qsig *measure.Signature
	m    measure.Measure
	opts QueryOptions
	// lo and hi bracket each candidate's score under m; gedLo is its
	// tier-0 GED lower bound, which tier 1 may raise at settle time.
	lo, hi, gedLo []float64
	fate          []uint8
	needGED       bool
}

// newRankScan runs tier 0 for q against the snapshot: m's interval for
// every candidate from its stored signature alone
// (measure.RankInterval, which computes only what m reads). It seeds
// coll's threshold from the pessimistic ends — the k best reported
// scores each sit under one of the k smallest uppers (tier-0 uppers
// bracket what the capped engines report), so the scan runs against a
// real bar instead of +Inf — and returns the scan state with the claim
// heap of every candidate whose optimistic end fits that seeded
// threshold. The threshold never rises, so the rest could never be
// claimed: they stay open and are attributed after the scan like any
// other cut-off candidate.
func newRankScan(sn snap, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions, coll rankedCollector) (*rankScan, *claimHeap) {
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	n := len(sn.graphs)
	cols := make([]float64, 3*n)
	rs := &rankScan{
		sn: sn, q: q, qsig: qsig, m: m, opts: opts,
		lo: cols[:n:n], hi: cols[n : 2*n : 2*n], gedLo: cols[2*n:],
		fate: make([]uint8, n),
	}
	rs.needGED, _ = measure.EngineNeeds(m)
	uppers := kSmallest{k: coll.floorK()}
	basis := []measure.Measure{m}
	for i, sig := range sn.sigs {
		rs.gedLo[i] = measure.RankInterval(sig, qsig, basis, rs.lo[i:i+1], rs.hi[i:i+1])
		uppers.push(rs.hi[i])
	}
	if v, ok := uppers.kth(); ok {
		coll.seedFloor(v)
	}
	th0 := coll.threshold()
	admitted := make([]int, 0, n)
	for i, lo := range rs.lo {
		if lo <= th0 {
			admitted = append(admitted, i)
		}
	}
	claims := newClaimHeap(admitted, rs.lo, rs.hi, sn.seqs)
	if opts.Trace != nil {
		// Bounding, threshold seeding and heapifying are bound-stage
		// work; the stage's pruned count (tier 1 plus the threshold
		// cutoff) is counted after the scan.
		opts.Trace.Observe(StageBound, time.Since(start), n, 0)
	}
	return rs, claims
}

// settle takes candidate i through its claim against coll's threshold
// as it stands: the threshold check, tier 1, then the engines,
// offering an exact score to coll. It returns false, settling nothing,
// when i's optimistic end already exceeds the threshold: in claim
// order everything after it is at least as hopeless, so the scan
// stops. Exclusion always carries a proof against a threshold no lower
// than the final one, so settle is a plain function of (candidate,
// collector): any call order, sequential or concurrent, collects the
// same answer.
func (rs *rankScan) settle(i int, coll rankedCollector) bool {
	// One threshold reading serves the cutoff and the engines below, so
	// a candidate the interval already condemns is always the cutoff's,
	// never an "exact" exclusion that ran no engine.
	th := coll.threshold()
	if rs.lo[i] > th {
		return false
	}
	trace := rs.opts.Trace
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	g, sig := rs.sn.graphs[i], rs.sn.sigs[i]
	// Tier 1: the branch bound raises the optimistic end of the GED
	// interval. A candidate it lifts above the threshold is out with no
	// engine run; otherwise the raised GEDLo narrows the decision run's
	// plan. A candidate whose pessimistic end already fits is certainly
	// in, so there is nothing to prove.
	gedLo := rs.gedLo[i]
	if rs.needGED && rs.hi[i] > th {
		if lb := rs.qsig.BranchTable().LB(sig); lb > gedLo {
			gedLo = lb
			if measure.AtGED(rs.m, lb) > th {
				rs.fate[i] = fateBounded
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
	// Threshold-fed evaluation: an engine decision run excludes, or a
	// plain exact run scores. Only here does the candidate need the full
	// interval statistics the engines plan from.
	bs := measure.BoundPair(sig, rs.qsig)
	bs.GEDLo = gedLo
	score, _, excluded, capped := measure.ComputeRankResults(g, rs.q, rs.m, th, bs, rs.opts.Eval)
	if excluded {
		rs.fate[i] = fateExcluded
		if trace != nil {
			trace.Observe(StageExact, time.Since(t0), 1, 1)
		}
		return true
	}
	rs.fate[i] = fateScored
	if capped {
		rs.fate[i] = fateInexact
	}
	coll.offer(i, topk.Item{ID: g.Name(), Score: score})
	if trace != nil {
		trace.Observe(StageExact, time.Since(t0), 1, 0)
	}
	return true
}

// stats attributes the scan by counting: every candidate has exactly
// one fate, so Pruned and every stage's pruned count are sums over the
// same partition of the snapshot. A candidate that was not scored was
// either excluded by an engine decision run (the exact stage's,
// observed on the trace as it happened) or proved out by the branch
// bound at its claim or cut off by the signature bound and the
// best-first threshold (both the bound stage's).
func (rs *rankScan) stats() QueryStats {
	var stats QueryStats
	boundPruned := 0
	for _, f := range rs.fate {
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
	rs.opts.Trace.Observe(StageBound, 0, 0, boundPruned)
	return stats
}

// evalRanked is the scan itself: tier 0 bounds every candidate and
// seeds the threshold (newRankScan), then one pool of opts.Workers
// workers pops the admitted candidates in claim order and settles each
// — tier 1, then the engines — until one's optimistic end exceeds the
// threshold.
//
// The returned stats carry the scan's Work and Inexact; Duration is the
// caller's to stamp.
func evalRanked(ctx context.Context, sn snap, qsig *measure.Signature, q *graph.Graph, m measure.Measure, opts QueryOptions, coll rankedCollector) (QueryStats, error) {
	if len(sn.graphs) == 0 {
		return QueryStats{}, nil
	}
	if ctx.Err() != nil {
		return QueryStats{}, ctx.Err()
	}
	rs, claims := newRankScan(sn, q, qsig, m, opts, coll)
	// A settle returning false stops the pool. A candidate another
	// worker already popped bounds lower than the one that stopped it
	// and still gets its own threshold check — dropping it unchecked
	// would lose a possible answer.
	err := forEachClaim(ctx, len(claims.idx), opts.Workers, func(int) bool {
		i, ok := claims.pop()
		return ok && rs.settle(i, coll)
	})
	if err != nil {
		return QueryStats{}, err
	}
	return rs.stats(), nil
}
