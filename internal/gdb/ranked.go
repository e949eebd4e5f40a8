package gdb

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

// Best-first ranked-query evaluation. A top-k or range query does not
// need the exact score of every database graph: candidates are ordered
// by the optimistic (lower) end of their score interval and evaluated
// most-promising-first against a live threshold — the current k-th best
// score, or the radius. The moment the least optimistic end left
// exceeds the threshold, every remaining candidate is provably out and
// the scan stops. Tier 0 computes only the ranking measure's
// signature-derived interval (measure.RankInterval) into plain columns,
// once per histogram class when the measure reads only the label
// histograms there (measure.HistogramRanked) — the members of a class
// share their interval bit for bit — and once per candidate otherwise.
// The classes come off a heap in claim order, each handing out its
// members in sequence order, so a scan that stops early pays neither
// for statistics its measure never reads nor for ordering candidates
// it never reaches; the full interval statistics (measure.BoundPair)
// are built only for a candidate that reaches the engines. A candidate
// the bound cannot settle meets tier 1 when the measure reads GED: the
// branch lower bound, read from the query's branch table
// (measure.BranchTable), decides whether the candidate's GED can fit
// under the threshold at all, and proves most claimed candidates out
// with no engine run, most of them without solving an assignment
// (BranchTable.Exceeds); a survivor's bound raises the optimistic end
// of its GED interval. The survivor does not go straight to the
// engines: it goes back into the claim heap under its raised optimistic
// end, so there is one best-first order over tier-0 classes and tier-1
// survivors, and the engines refine candidates in ascending order of
// their best lower bound — the order that makes fewest exact
// evaluations for a top-k query (Seidl and Kriegel, "Optimal
// Multi-Step k-Nearest Neighbor Search", SIGMOD 1998), as the threshold
// tightens before the candidates it cuts off are reached (a range
// threshold is fixed, so there the order changes no evaluation). A
// survivor whose bound did not raise its key is still the least, and
// goes straight on. A survivor meets a threshold-fed decision run of
// the exact engines (ged.Options.Limit / mcs.Options.Need), which
// discards most survivors without paying for exactness, and a plain
// exact evaluation only for candidates that might make the answer.
// Tier 1 narrows the optimistic end because that is the end every
// cutoff reads; a refinement of the pessimistic end (bipartite GED,
// greedy MCS) never prunes against a best-first threshold and cost more
// than the decision runs it spared, so there is none. Included scores
// are byte-identical to a complete table's column, so the answer —
// scores and tie-order — matches ranking every graph exactly. It is the
// one evaluation path of TopKQuery and RangeQuery. The scan is one loop
// on the calling goroutine: a second one would refine candidates out of
// bound order against a threshold that misses the scores still in
// flight, which costs exact evaluations, so what every candidate's fate
// is stays a fixed function of (snapshot, query, measure, threshold).

// rankedCollector accumulates exact scores and exposes the live pruning
// threshold, which the scan reads before every candidate.
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
	k  int
	b  *topk.Bounded
	th float64
}

func newTopkCollector(k int) *topkCollector {
	return &topkCollector{k: k, b: topk.NewBounded(k), th: math.Inf(1)}
}

func (c *topkCollector) offer(_ int, it topk.Item) {
	c.b.Offer(it)
	if c.b.Full() {
		if w, ok := c.b.Worst(); ok && w.Score < c.th {
			c.th = w.Score
		}
	}
}

func (c *topkCollector) floorK() int { return c.k }

func (c *topkCollector) seedFloor(v float64) { c.th = v }

func (c *topkCollector) threshold() float64 { return c.th }

// items returns the k best in ascending (score, ID) order — exactly
// topk.Select's order.
func (c *topkCollector) items() []topk.Item { return c.b.Items() }

// rangeCollector keeps every item within the radius with its snapshot
// position; the threshold is the radius itself, fixed for the whole
// query.
type rangeCollector struct {
	radius float64
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
	c.list = append(c.list, rangeHit{pos, it})
}

func (c *rangeCollector) threshold() float64 { return c.radius }

// A range collector takes no floor: its threshold is the radius itself.
func (c *rangeCollector) floorK() int       { return 0 }
func (c *rangeCollector) seedFloor(float64) {}

// items returns the in-radius items in snapshot (insertion) order,
// whatever order the scan evaluated them in.
func (c *rangeCollector) items() []topk.Item {
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
// are its unclaimed candidates, which all bound as lo and hi, and seq
// is the insert sequence of members[next]. The run carries its whole
// key, so ordering runs reads no other memory.
type claimRun struct {
	lo, hi    float64
	seq       uint64
	next, end int32
}

// claim is one candidate as the claim heap hands it out: candidate i
// under its optimistic end lo and pessimistic end hi. A survivor is a
// candidate tier 1 has claimed already and could not prove out, queued
// again under the optimistic end its branch bound raised; gedLo is that
// raised GED lower bound, which the engines plan from.
type claim struct {
	lo, hi, gedLo float64
	i             int32
	survivor      bool
}

// claimHeap hands the admitted candidates to the scan in claim order:
// ascending optimistic end (lo), lo ties by pessimistic end (hi),
// remaining ties by insert sequence. It holds two queues under that one
// order. The first holds
// the tier-0 classes, not candidates: the members of a class share
// (lo, hi) bit for bit and come off it in sequence order, so a class is
// keyed by (lo, hi, the sequence of its next member), and merging the
// classes by that key is the candidates' sorted order. Heapifying is
// O(classes), and the scan usually stops after popping a small share
// of the candidates, where a full sort paid O(n log n) for all of them.
// The second holds the survivors tier 1 queues back (push), keyed by
// their raised lo; a survivor comes off before a class whose lo ties
// its own. Sequences are unique, so each order is total, and popping a
// heap nobody pushes to yields exactly the sorted order.
type claimHeap struct {
	runs    []claimRun // a binary min-heap under compare
	queued  []claim    // a binary min-heap under compareQueued
	members []int32
	seqs    []uint64
}

// newClaimHeap heapifies the admitted classes of g, whose bounds are
// lo[c] and hi[c], over the candidates' insert sequences seqs.
func newClaimHeap(admitted []int, lo, hi []float64, g classGroups, seqs []uint64) *claimHeap {
	h := &claimHeap{runs: make([]claimRun, len(admitted)), members: g.members, seqs: seqs}
	for k, c := range admitted {
		h.runs[k] = claimRun{lo: lo[c], hi: hi[c], seq: seqs[g.members[g.start[c]]], next: g.start[c], end: g.start[c+1]}
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
	return cmp.Compare(a.seq, b.seq)
}

// compareQueued orders survivors a and b.
func (h *claimHeap) compareQueued(a, b *claim) int {
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(h.seqs[a.i], h.seqs[b.i])
}

// down restores the heap property of runs below position i.
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

// downQueued restores the heap property of queued below position i.
func (h *claimHeap) downQueued(i int) {
	q := h.queued
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && h.compareQueued(&q[c+1], &q[c]) < 0 {
			c++
		}
		if h.compareQueued(&q[c], &q[i]) >= 0 {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// pop removes and returns the first claim in claim order over both
// queues; ok is false once both are empty.
func (h *claimHeap) pop() (cl claim, ok bool) {
	if q := h.queued; len(q) > 0 && (len(h.runs) == 0 || q[0].lo <= h.runs[0].lo) {
		cl = q[0]
		last := len(q) - 1
		q[0] = q[last]
		h.queued = q[:last]
		h.downQueued(0)
		return cl, true
	}
	if len(h.runs) == 0 {
		return claim{}, false
	}
	r := &h.runs[0]
	cl = claim{lo: r.lo, hi: r.hi, i: h.members[r.next]}
	if r.next++; r.next < r.end {
		r.seq = h.seqs[h.members[r.next]]
	} else {
		last := len(h.runs) - 1
		h.runs[0] = h.runs[last]
		h.runs = h.runs[:last]
	}
	h.down(0)
	return cl, true
}

// push queues survivor cl back into claim order.
func (h *claimHeap) push(cl claim) {
	h.queued = append(h.queued, cl)
	for i := len(h.queued) - 1; i > 0; {
		p := (i - 1) / 2
		if h.compareQueued(&h.queued[i], &h.queued[p]) >= 0 {
			break
		}
		h.queued[i], h.queued[p] = h.queued[p], h.queued[i]
		i = p
	}
}

// How a candidate left the ranked scan.
const (
	fateOpen     uint8 = iota // not evaluated nor proved out by tier 1: cut off by the threshold
	fateScored                // exact score computed
	fateExcluded              // an engine decision run proved it out
	fateBounded               // the branch bound proved it out (tier 1)
)

// rankScan is the ranked scan over one snapshot. The tier-0 columns are
// indexed by class and read-only once built; an element of fate is
// indexed like the snapshot, written by its candidate's tier-1 step
// (branch) and then by its engines step (evaluate), and read after the
// scan.
type rankScan struct {
	sn   snap
	q    *graph.Graph
	qsig *measure.Signature
	m    measure.Measure
	opts QueryOptions
	// stop stops the exact engines (measure.Options.Stop): the query's
	// Done channel, nil for a delta score, which is never stopped.
	stop <-chan struct{}
	// cls[i] is candidate i's class: its histogram class when m's tier-0
	// interval reads only the histograms (measure.HistogramRanked); nil
	// otherwise, when candidate i is class i.
	cls []int32
	// lo and hi bracket a class's scores under m; gedLo is its tier-0
	// GED lower bound, which tier 1 may raise per candidate (a
	// survivor's claim carries the raised one).
	lo, hi, gedLo []float64
	fate          []uint8
	needGED       bool
	// fit is measure.GEDFit of m at fitTh, the last threshold a tier-1
	// step read (NaN before the first): the threshold changes far less
	// often than candidates are settled.
	fitTh, fit float64
}

// gedFit returns measure.GEDFit(rs.m, th), computed once per threshold
// value.
func (rs *rankScan) gedFit(th float64) float64 {
	if th != rs.fitTh {
		rs.fitTh, rs.fit = th, measure.GEDFit(rs.m, th)
	}
	return rs.fit
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
// scores each sit under one of the k smallest uppers, so the scan runs
// against a real bar instead of +Inf — and returns the scan state with
// the claim heap of every class whose optimistic end fits that seeded
// threshold. The threshold never rises, so the rest could never be
// claimed: they stay open and are attributed after the scan like any
// other cut-off candidate. It polls ctx once every pollClasses classes
// and returns ctx.Err() once it is done, before any claim; the scan's
// engines stop on ctx's Done channel.
func newRankScan(ctx context.Context, sn snap, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions, coll rankedCollector) (*rankScan, *claimHeap, error) {
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	n := len(sn.graphs)
	rs := &rankScan{sn: sn, q: q, qsig: qsig, m: m, opts: opts, stop: ctx.Done(), fate: make([]uint8, n), fitTh: math.NaN()}
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
		if c%pollClasses == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
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
	return rs, claims, nil
}

// pollClasses is how many classes (on a skyline scan, candidates) tier
// 0 bounds between two polls of the query's context: often enough that
// a cancel stops tier 0 long before it would end on a large store,
// rarely enough that the polls cost nothing next to the bounding.
const pollClasses = 256

// settle takes candidate i through both steps of its claim against
// coll's threshold as it stands: the cutoff, tier 1 (branch), then
// the engines (evaluate) at the same threshold, with no queue between
// them. DeltaScore and RankedItemsInOrder settle candidates this way;
// the scan runs the same two steps with the claim heap between them
// (run). Exclusion always carries a proof against a threshold no lower
// than the final one, so settling is a plain function of (candidate,
// collector): any call order collects the same answer.
func (rs *rankScan) settle(i int, coll rankedCollector) {
	th := coll.threshold()
	if rs.lo[rs.class(i)] > th {
		return
	}
	if cl, ok := rs.branch(i, th); ok {
		rs.evaluate(cl, th, coll)
	}
}

// branch is the tier-1 step of candidate i's tier-0 claim against the
// threshold th, which i's optimistic end fits. The branch bound decides
// whether it proves the candidate out: above the largest GED the
// threshold admits, it is out with no engine run, and branch reports
// false. Otherwise i survives, and branch returns its survivor claim,
// whose optimistic end the bound raised, for the engines step. A
// candidate whose pessimistic end already fits is certainly in, and one
// whose measure reads no GED has no branch bound: either survives
// unraised. The fate of a survivor tier 1 ran on reads fateBounded
// until its engines step runs: if the scan never comes back to it, or
// comes back to it above the threshold, its bound proved it out.
func (rs *rankScan) branch(i int, th float64) (claim, bool) {
	c := rs.class(i)
	cl := claim{lo: rs.lo[c], hi: rs.hi[c], gedLo: rs.gedLo[c], i: int32(i), survivor: true}
	if !rs.needGED || cl.hi <= th {
		return cl, true
	}
	trace := rs.opts.Trace
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	sig := rs.sn.sigs[i]
	gedHi := sig.Order + rs.qsig.Order + sig.Size + rs.qsig.Size
	limit := measure.GEDLimitAt(rs.gedFit(th), int(cl.gedLo), gedHi)
	lb, above := rs.qsig.BranchTable().Exceeds(sig, limit)
	rs.fate[i] = fateBounded
	if lb > cl.gedLo && !above {
		cl.gedLo, cl.lo = lb, measure.AtGED(rs.m, lb)
	}
	if trace != nil {
		trace.Observe(StageBound, time.Since(t0), 0, 0)
	}
	return cl, !above
}

// evaluate is the engines step of survivor cl against the threshold
// th, which cl's optimistic end fits: an engine decision run excludes
// it, or a plain exact run scores it and offers the score to coll.
// Only here does the candidate need the full interval statistics the
// engines plan from.
func (rs *rankScan) evaluate(cl claim, th float64, coll rankedCollector) {
	trace := rs.opts.Trace
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	i := int(cl.i)
	g, sig := rs.sn.graphs[i], rs.sn.sigs[i]
	bs := measure.BoundPair(sig, rs.qsig)
	bs.GEDLo = cl.gedLo
	score, _, excluded := measure.ComputeRankResults(g, rs.q, rs.m, th, bs, measure.Options{Stop: rs.stop})
	if excluded {
		rs.fate[i] = fateExcluded
		if trace != nil {
			trace.Observe(StageExact, time.Since(t0), 1, 1)
		}
		return
	}
	rs.fate[i] = fateScored
	coll.offer(i, topk.Item{ID: g.Name(), Score: score})
	if trace != nil {
		trace.Observe(StageExact, time.Since(t0), 1, 0)
	}
}

// run is the scan: one loop pops the claim heap in claim order against
// coll's live threshold, one threshold reading per pop, until the claims
// run out or the least key left exceeds the threshold — everything
// after it in claim order is at least as hopeless. A tier-0 claim runs
// tier 1 (branch) and queues its survivor back into the heap under the
// raised key; a survivor popped again runs the engines (evaluate).
// Candidates are thus refined by exact runs in ascending order of their
// best lower bound, so the top-k threshold tightens before the
// candidates it will cut off are reached. A survivor whose key tier 1
// did not raise (one certainly in, or one whose measure reads no GED)
// is still the least key, so it runs the engines at once and the heap
// sees no second pop. It polls ctx before every pop and returns
// ctx.Err().
func (rs *rankScan) run(ctx context.Context, claims *claimHeap, coll rankedCollector) error {
	for ctx.Err() == nil {
		cl, ok := claims.pop()
		// One threshold reading serves the cutoff and the step below,
		// so a candidate its key already condemns is always a bound's,
		// never an "exact" exclusion that ran no engine.
		th := coll.threshold()
		if !ok || cl.lo > th {
			break
		}
		if cl.survivor {
			rs.evaluate(cl, th, coll)
			continue
		}
		lo := cl.lo
		if cl, ok = rs.branch(int(cl.i), th); !ok {
			continue
		}
		if cl.lo > lo {
			claims.push(cl)
		} else {
			rs.evaluate(cl, th, coll) // still the least key
		}
	}
	return ctx.Err()
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
		case fateScored:
			stats.Evaluated++
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
// seeds the threshold (newRankScan), then one loop pops the admitted
// candidates in claim order and takes each through tier 1 and, as a
// survivor claimed again, the engines (run).
// Once ctx is done, tier 0 stops bounding, the engines stop and the
// scan returns ctx.Err().
//
// The returned stats carry the scan's Work; Duration is the caller's to
// stamp.
func evalRanked(ctx context.Context, sn snap, qsig *measure.Signature, q *graph.Graph, m measure.Measure, opts QueryOptions, coll rankedCollector) (QueryStats, error) {
	if len(sn.graphs) == 0 {
		return QueryStats{}, nil
	}
	rs, claims, err := newRankScan(ctx, sn, q, qsig, m, opts, coll)
	if err != nil {
		return QueryStats{}, err
	}
	if err := rs.run(ctx, claims, coll); err != nil {
		return QueryStats{}, err
	}
	return rs.stats(), nil
}
