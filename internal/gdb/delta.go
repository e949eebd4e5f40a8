package gdb

import (
	"slices"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Delta maintenance primitives. A cached VectorTable or a cached ranked
// answer differs from its successor by at most one row when the
// mutation between them was a single insert or delete. DeltaBound reads
// the one row's tier-0 optimistic corner from the stored signature — no
// engine runs — so the serving layer can often prove an entry unchanged
// outright; DeltaRow and DeltaScore evaluate the row through the same
// code path the cold build uses — stored signature hints, ScoreMemo
// interplay, identical engine options — so a spliced row is
// byte-identical to the row a cold recompute would produce. The serving
// layer owns the provability argument (which cached entries a given
// mutation may patch); these primitives only guarantee row fidelity and
// report the generation they observed so the caller can detect
// interleaved mutations. All three take the query's signature from the
// caller, which computes it once per request rather than once per
// upgrade.

// row reads the named entry, the generation it belongs to and the score
// memo under one lock acquisition.
func (sh *Sharded) row(name string) (e *entry, gen uint64, memo *ScoreMemo) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.byName[name], sh.gen, sh.memo
}

// DeltaBound returns the tier-0 optimistic corner of the single named
// graph against the query signature qsig under basis — the corner a
// cold scan starts from (measure.RankInterval with the stored
// signature first, so no pessimistic corner and no unread statistic is
// computed). A ranked answer passes its one measure as the basis. gen
// and ok behave as in DeltaRow. basis must be Boundable.
func (sh *Sharded) DeltaBound(name string, qsig *measure.Signature, basis []measure.Measure) (lo []float64, gen uint64, ok bool) {
	e, gen, _ := sh.row(name)
	if e == nil {
		return nil, gen, false
	}
	lo = make([]float64, len(basis))
	measure.RankInterval(e.sig, qsig, basis, lo, nil)
	return lo, gen, true
}

// DeltaRow evaluates the GCS vector of the single named graph against
// q (whose signature is qsig), exactly as the unpruned table build
// would: stored signature as the pair hint, score-memo replay and
// publish, opts.Eval engine caps.
// gen is the database generation observed while reading the graph —
// callers patching a table toward generation G must see gen == G, or a
// later mutation has interleaved and the row may describe a different
// graph value (delete + re-insert of the same name). ok is false when
// the name is not present.
func (sh *Sharded) DeltaRow(name string, q *graph.Graph, qsig *measure.Signature, opts QueryOptions) (pt skyline.Point, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	e, gen, memo := sh.row(name)
	if e == nil {
		return skyline.Point{}, false, gen, false
	}
	ec := newEvalCtx(memo, q, opts)
	ps := ec.computeFull(e.g, q, e.seq, opts.Eval, measure.PairHints{Sig1: e.sig, Sig2: qsig})
	pt = skyline.Point{ID: name, Vec: measure.GCS(ps, opts.Basis)}
	return pt, !ps.GEDExact || !ps.MCSExact, gen, true
}

// DeltaScore evaluates the single named graph's exact score under m,
// the way the best-first ranked scan scores a candidate it cannot
// exclude: only the engines m consumes run, with memo replay and
// publish. Scores are therefore byte-identical to the ranked path's. m
// must be a built-in (measure.Rankable), as it is for every ranked
// query. gen and ok behave as in DeltaRow.
func (sh *Sharded) DeltaScore(name string, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions) (score float64, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	e, gen, memo := sh.row(name)
	if e == nil {
		return 0, false, gen, false
	}
	ec := newEvalCtx(memo, q, opts)
	needGED, needMCS := measure.EngineNeeds(m)
	var have measure.EngineResults
	if needGED || needMCS {
		have, _ = ec.memoGet(e.seq, needGED, needMCS)
	}
	var got measure.EngineResults
	score, got, inexact = measure.ScorePairWith(e.g, q, m, opts.Eval, measure.PairHints{Sig1: e.sig, Sig2: qsig}, have)
	ec.memoPublish(e.seq, got)
	return score, inexact, gen, true
}

// WithGeneration returns a copy of t advanced to generation gen with
// its rows unchanged, counting one delta. It is the whole patch when a
// mutation provably leaves the rows as they are — a pruned table across
// the insert of a graph its rows dominate or the delete of a graph it
// never kept — and the first step of WithInsert and WithDelete. The
// receiver is never mutated (concurrent readers may hold it); the copy
// shares its immutable Points.
func (t *VectorTable) WithGeneration(gen uint64) *VectorTable {
	nt := *t
	nt.Generation = gen
	nt.Deltas++
	return &nt
}

// WithInsert returns a new table extending t by one freshly inserted
// row, which produced generation gen. The row lands at the end of
// Points, which is its place in insertion order. The caller must have
// proven admissibility: gen == t.Generation+1, the row was evaluated at
// exactly gen (DeltaRow's returned generation), and — for a pruned
// table — the row belongs to the kept set.
func (t *VectorTable) WithInsert(pt skyline.Point, inexact bool, gen uint64) *VectorTable {
	nt := t.WithGeneration(gen)
	nt.Points = append(slices.Clip(t.Points), pt)
	if inexact {
		nt.Inexact++
	}
	return nt
}

// WithDelete returns a new table with the named row removed and the
// generation advanced to gen. ok is false when the name has no row.
// Skyline answers derive from Points per call, so dropping the row is
// the entire delete: no skyline recomputation happens unless a later
// query asks for one, and then only over the surviving rows.
func (t *VectorTable) WithDelete(name string, gen uint64) (*VectorTable, bool) {
	idx := slices.IndexFunc(t.Points, func(p skyline.Point) bool { return p.ID == name })
	if idx < 0 {
		return nil, false
	}
	nt := t.WithGeneration(gen)
	nt.Points = slices.Delete(slices.Clone(t.Points), idx, idx+1)
	return nt, true
}
