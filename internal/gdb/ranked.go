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
// columns, once per histogram class when the measure reads only the
// label histograms there (measure.HistogramRanked) — the members of a
// class share their interval bit for bit — and once per candidate
// otherwise. The classes come off a heap in claim order, each handing
// out its members in sequence order, so a scan that stops early pays
// neither for statistics its measure never reads nor for ordering
// candidates it never reaches; the full interval statistics
// (measure.BoundPair) are built only for a candidate that reaches the
// engines. A candidate the bound cannot settle meets tier 1 when the
// measure reads GED: the branch lower bound, read from the query's
// branch table (measure.BranchTable), decides whether the candidate's
// GED can fit under the threshold at all, and proves most claimed
// candidates out with no engine run, most of them without solving an
// assignment (BranchTable.Exceeds); a survivor's bound raises the
// optimistic end of its GED interval. The rest go to a threshold-fed
// decision run of the exact engines (ged.Options.Limit /
// mcs.Options.Need), which discards most survivors without paying for
// exactness, and a plain exact evaluation only for candidates that
// might make the answer. Tier 1 narrows the optimistic end because that
// is the end every cutoff reads; a refinement of the pessimistic end
// (bipartite GED, greedy MCS) never prunes against a best-first
// threshold and cost more than the decision runs it spared, so there is
// none. Included scores are byte-identical
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

// classGroups lists a snapshot's candidates class by class: class c's
// members are members[start[c]:start[c+1]], in ascending insert
// sequence.
type classGroups struct {
	members, start []int32
}

// groupByClass groups the candidates of a snapshot with insert
// sequences seqs by class, cls[i] being candidate i's class among nc.
// A nil cls puts every candidate in a class of its own: class i, with i
// its only member. O(n + nc).
func groupByClass(cls []int32, nc int, seqs []uint64) classGroups {
	n := len(seqs)
	g := classGroups{members: make([]int32, n), start: make([]int32, nc+1)}
	if cls == nil {
		for i := range g.members {
			g.members[i] = int32(i)
			g.start[i+1] = int32(i + 1)
		}
		return g
	}
	// A counting sort, stable in snapshot order: start[c] is c's fill
	// cursor, which ends at start[c+1] and is shifted back after.
	for _, c := range cls {
		g.start[c+1]++
	}
	for c := range nc {
		g.start[c+1] += g.start[c]
	}
	ascending := true
	for i, c := range cls {
		g.members[g.start[c]] = int32(i)
		g.start[c]++
		ascending = ascending && (i == 0 || seqs[i] > seqs[i-1])
	}
	copy(g.start[1:], g.start[:nc])
	g.start[0] = 0
	if !ascending {
		// Concurrent inserts can land out of sequence order.
		for c := range nc {
			slices.SortFunc(g.members[g.start[c]:g.start[c+1]], func(a, b int32) int { return cmp.Compare(seqs[a], seqs[b]) })
		}
	}
	return g
}

// claimRun is one admitted class in the claim heap: members[next:end]
// are its unclaimed candidates, which all bound as lo and hi.
type claimRun struct {
	lo, hi    float64
	next, end int32
}

// claimHeap hands the admitted candidates to the scan's workers in
// claim order, one pop at a time under its mutex: ascending optimistic
// end (lo), lo ties by pessimistic end (hi), remaining ties by insert
// sequence. Sequences are unique, so the order is total and popping the
// whole heap yields exactly the sorted order. The heap holds classes,
// not candidates: the members of a class share (lo, hi) bit for bit and
// come off it in sequence order, so a class is keyed by (lo, hi, the
// sequence of its next member), and merging the classes by that key is
// the candidates' sorted order. Heapifying is O(classes), and the scan
// usually stops after popping a small share of the candidates, where a
// full sort paid O(n log n) for all of them.
type claimHeap struct {
	mu      sync.Mutex
	runs    []claimRun // a binary min-heap under compare
	members []int32
	seqs    []uint64
	n       int // candidates in the admitted classes
}

// newClaimHeap heapifies the admitted classes of g, whose bounds are
// lo[c] and hi[c], over the candidates' insert sequences seqs.
func newClaimHeap(admitted []int, lo, hi []float64, g classGroups, seqs []uint64) *claimHeap {
	h := &claimHeap{runs: make([]claimRun, len(admitted)), members: g.members, seqs: seqs}
	for k, c := range admitted {
		h.runs[k] = claimRun{lo: lo[c], hi: hi[c], next: g.start[c], end: g.start[c+1]}
		h.n += int(g.start[c+1] - g.start[c])
	}
	for i := len(h.runs)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// compare orders runs a and b by their next claims.
func (h *claimHeap) compare(a, b *claimRun) int {
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(h.seqs[h.members[a.next]], h.seqs[h.members[b.next]])
}

// down restores the heap property below position i.
func (h *claimHeap) down(i int) {
	runs := h.runs
	for {
		c := 2*i + 1
		if c >= len(runs) {
			return
		}
		if c+1 < len(runs) && h.compare(&runs[c+1], &runs[c]) < 0 {
			c++
		}
		if h.compare(&runs[c], &runs[i]) >= 0 {
			return
		}
		runs[i], runs[c] = runs[c], runs[i]
		i = c
	}
}

// pop removes and returns the first candidate in claim order; ok is
// false once the heap is empty.
func (h *claimHeap) pop() (i int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.runs) == 0 {
		return 0, false
	}
	r := &h.runs[0]
	i = int(h.members[r.next])
	if r.next++; r.next == r.end {
		last := len(h.runs) - 1
		h.runs[0] = h.runs[last]
		h.runs = h.runs[:last]
	}
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
// indexed by class and read-only once built; an element of fate is
// indexed like the snapshot, written only by the one settle call of its
// candidate and read after the scan.
type rankScan struct {
	sn   snap
	q    *graph.Graph
	qsig *measure.Signature
	m    measure.Measure
	opts QueryOptions
	// cls[i] is candidate i's class: its histogram class when m's tier-0
	// interval reads only the histograms (measure.HistogramRanked); nil
	// otherwise, when candidate i is class i.
	cls []int32
	// lo and hi bracket a class's scores under m; gedLo is its tier-0
	// GED lower bound, which tier 1 may raise per candidate at settle
	// time.
	lo, hi, gedLo []float64
	fate          []uint8
	needGED       bool
	// fit is measure.GEDFit of m at the last threshold a settle read,
	// shared by the workers: the threshold changes far less often than
	// candidates are settled.
	fit atomic.Pointer[thresholdFit]
}

// thresholdFit pairs a threshold with measure.GEDFit at it.
type thresholdFit struct{ th, fit float64 }

// gedFit returns measure.GEDFit(rs.m, th), computed once per threshold
// value.
func (rs *rankScan) gedFit(th float64) float64 {
	if c := rs.fit.Load(); c != nil && c.th == th {
		return c.fit
	}
	c := &thresholdFit{th: th, fit: measure.GEDFit(rs.m, th)}
	rs.fit.Store(c)
	return c.fit
}

// class returns candidate i's class.
func (rs *rankScan) class(i int) int {
	if rs.cls == nil {
		return i
	}
	return int(rs.cls[i])
}

// newRankScan runs tier 0 for q against the snapshot: m's interval for
// every class from a member's stored signature alone
// (measure.RankInterval, which computes only what m reads), once per
// histogram class when m reads only the histograms and once per
// candidate otherwise. It seeds coll's threshold from the pessimistic
// ends, each class's counted once per member — the k best reported
// scores each sit under one of the k smallest uppers (tier-0 uppers
// bracket what the capped engines report), so the scan runs against a
// real bar instead of +Inf — and returns the scan state with the claim
// heap of every class whose optimistic end fits that seeded threshold.
// The threshold never rises, so the rest could never be claimed: they
// stay open and are attributed after the scan like any other cut-off
// candidate.
func newRankScan(sn snap, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions, coll rankedCollector) (*rankScan, *claimHeap) {
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	n := len(sn.graphs)
	rs := &rankScan{sn: sn, q: q, qsig: qsig, m: m, opts: opts, fate: make([]uint8, n)}
	nc := n
	if measure.HistogramRanked(m) {
		rs.cls, nc = sn.cls, sn.classes
	}
	groups := groupByClass(rs.cls, nc, sn.seqs)
	cols := make([]float64, 3*nc)
	rs.lo, rs.hi, rs.gedLo = cols[:nc:nc], cols[nc:2*nc:2*nc], cols[2*nc:]
	rs.needGED, _ = measure.EngineNeeds(m)
	uppers := kSmallest{k: coll.floorK()}
	basis := []measure.Measure{m}
	for c := range nc {
		from, to := groups.start[c], groups.start[c+1]
		rs.gedLo[c] = measure.RankInterval(sn.sigs[groups.members[from]], qsig, basis, rs.lo[c:c+1], rs.hi[c:c+1])
		for range min(int(to-from), uppers.k) {
			uppers.push(rs.hi[c])
		}
	}
	if v, ok := uppers.kth(); ok {
		coll.seedFloor(v)
	}
	th0 := coll.threshold()
	admitted := make([]int, 0, nc)
	for c, lo := range rs.lo {
		if lo <= th0 {
			admitted = append(admitted, c)
		}
	}
	claims := newClaimHeap(admitted, rs.lo, rs.hi, groups, sn.seqs)
	if opts.Trace != nil {
		// Bounding, threshold seeding and heapifying are bound-stage
		// work, one pair per candidate; the stage's pruned count (tier 1
		// plus the threshold cutoff) is counted after the scan.
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
	c := rs.class(i)
	if rs.lo[c] > th {
		return false
	}
	trace := rs.opts.Trace
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	g, sig := rs.sn.graphs[i], rs.sn.sigs[i]
	// Tier 1: the branch bound decides whether it proves the candidate
	// out: above the largest GED the threshold admits, it is out with
	// no engine run. Otherwise the bound raises the optimistic end of
	// the GED interval, which narrows the decision run's plan. A
	// candidate whose pessimistic end already fits is certainly in, so
	// there is nothing to prove.
	gedLo := rs.gedLo[c]
	if rs.needGED && rs.hi[c] > th {
		gedHi := sig.Order + rs.qsig.Order + sig.Size + rs.qsig.Size
		limit := measure.GEDLimitAt(rs.gedFit(th), int(gedLo), gedHi)
		lb, above := rs.qsig.BranchTable().Exceeds(sig, limit)
		if above {
			rs.fate[i] = fateBounded
			if trace != nil {
				trace.Observe(StageBound, time.Since(t0), 0, 0)
			}
			return true
		}
		gedLo = max(gedLo, lb)
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
	err := forEachClaim(ctx, claims.n, opts.Workers, func(int) bool {
		i, ok := claims.pop()
		return ok && rs.settle(i, coll)
	})
	if err != nil {
		return QueryStats{}, err
	}
	return rs.stats(), nil
}
