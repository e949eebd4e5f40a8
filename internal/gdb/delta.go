package gdb

import (
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Delta maintenance primitives. A cached complete VectorTable (or a
// cached ranked answer derived from one evaluation) differs from its
// successor generation by exactly one row when the mutation between
// them was a single insert or delete. DeltaRow and DeltaScore evaluate
// that one row through the same code path the cold build uses —
// stored signature hints, ScoreMemo interplay, identical engine
// options — so a spliced row is byte-identical to the row a cold
// recompute would produce. The serving layer owns the provability
// argument (which cached entries a given mutation may patch); these
// primitives only guarantee row fidelity and report the generation
// they observed so the caller can detect interleaved mutations.

// DeltaRow evaluates the GCS vector of the single named graph against
// q, exactly as the unpruned table build would: stored signature as
// the pair hint, score-memo replay and publish, opts.Eval engine caps.
// gen is the database generation observed while reading the graph —
// callers patching a table toward generation G must see gen == G, or a
// later mutation has interleaved and the row may describe a different
// graph value (delete + re-insert of the same name). ok is false when
// the name is not present.
func (db *DB) DeltaRow(name string, q *graph.Graph, opts QueryOptions) (pt skyline.Point, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	db.mu.RLock()
	e, present := db.graphs[name]
	gen = db.gen
	db.mu.RUnlock()
	if !present {
		return skyline.Point{}, false, gen, false
	}
	qsig := measure.NewSignature(q)
	ec := db.newEvalCtx(q, qsig, opts, false)
	ps := ec.computeFull(e.g, q, e.seq, opts.Eval, measure.PairHints{Sig1: e.sig, Sig2: qsig})
	pt = skyline.Point{ID: name, Vec: measure.GCS(ps, opts.Basis)}
	return pt, !ps.GEDExact || !ps.MCSExact, gen, true
}

// DeltaScore evaluates the single named graph's exact score under m,
// the way the best-first ranked scan scores a candidate it cannot
// exclude: only the engines m consumes run, with memo replay and
// publish. Scores are therefore byte-identical to both the complete
// table's column and the ranked path.
// gen and ok behave as in DeltaRow.
func (db *DB) DeltaScore(name string, q *graph.Graph, m measure.Measure, opts QueryOptions) (score float64, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	db.mu.RLock()
	e, present := db.graphs[name]
	gen = db.gen
	db.mu.RUnlock()
	if !present {
		return 0, false, gen, false
	}
	qsig := measure.NewSignature(q)
	ec := db.newEvalCtx(q, qsig, opts, false)
	h := measure.PairHints{Sig1: e.sig, Sig2: qsig}
	if measure.Rankable(m) {
		needGED, needMCS := measure.EngineNeeds(m)
		var have measure.EngineResults
		if needGED || needMCS {
			have, _ = ec.memoGet(e.seq, needGED, needMCS)
		}
		var got measure.EngineResults
		score, got, inexact = measure.ScorePairWith(e.g, q, m, opts.Eval, h, have)
		ec.memoPublish(e.seq, got)
		return score, inexact, gen, true
	}
	ps := ec.computeFull(e.g, q, e.seq, opts.Eval, h)
	return m.FromStats(ps), !ps.GEDExact || !ps.MCSExact, gen, true
}

// WithInsert returns a new table extending t by one freshly inserted
// row at generation gen. The receiver is never mutated — concurrent
// readers may hold it — and the row lands at the end of Points,
// matching the global insertion order a cold rebuild would produce.
// The caller must have proven admissibility: t is complete, gen ==
// t.Generation+1, and the row was evaluated at exactly gen (DeltaRow's
// returned generation).
func (t *VectorTable) WithInsert(pt skyline.Point, inexact bool, gen uint64) *VectorTable {
	nt := *t
	nt.Points = make([]skyline.Point, len(t.Points)+1)
	copy(nt.Points, t.Points)
	nt.Points[len(t.Points)] = pt
	if inexact {
		nt.Inexact++
	}
	nt.Generation = gen
	nt.Deltas++
	return &nt
}

// WithDelete returns a new table with the named row removed and the
// generation advanced to gen (again without mutating the receiver).
// ok is false when the name has no row — impossible for a complete
// table and a victim that existed, so callers treat it as a failed
// proof and fall back to invalidation. Skyline, top-k and range
// answers derive from Points per call, so dropping the row is the
// entire delete: no skyline recomputation happens unless a later query
// asks for one, and then only over the surviving rows.
func (t *VectorTable) WithDelete(name string, gen uint64) (*VectorTable, bool) {
	idx := -1
	for i := range t.Points {
		if t.Points[i].ID == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, false
	}
	nt := *t
	nt.Points = make([]skyline.Point, 0, len(t.Points)-1)
	nt.Points = append(nt.Points, t.Points[:idx]...)
	nt.Points = append(nt.Points, t.Points[idx+1:]...)
	nt.Generation = gen
	nt.Deltas++
	return &nt, true
}
