package gdb

import (
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Delta maintenance primitives. A cached VectorTable or a cached ranked
// answer differs from its successor
// generation by at most one row when the mutation between them was a
// single insert or delete. DeltaBound reads the one row's tier-0
// interval from the stored signature — no engine runs — so the serving
// layer can often prove an entry unchanged outright; DeltaRow and
// DeltaScore evaluate the row through the same code path the cold build
// uses — stored signature hints, ScoreMemo interplay, identical engine
// options — so a spliced row is byte-identical to the row a cold
// recompute would produce. The serving layer owns the provability
// argument (which cached entries a given mutation may patch); these
// primitives only guarantee row fidelity and report the generation
// they observed so the caller can detect interleaved mutations. All
// three take the query's signature from the caller, which computes it
// once per request rather than once per upgrade.

// DeltaBound returns the tier-0 interval statistics of the single named
// graph against the query signature qsig — the bounds a cold build
// starts from (measure.BoundPair with the stored signature first). gen
// and ok behave as in DeltaRow.
func (db *DB) DeltaBound(name string, qsig *measure.Signature) (bs measure.BoundStats, gen uint64, ok bool) {
	db.mu.RLock()
	e, present := db.graphs[name]
	gen = db.gen
	db.mu.RUnlock()
	if !present {
		return measure.BoundStats{}, gen, false
	}
	return measure.BoundPair(e.sig, qsig), gen, true
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
func (db *DB) DeltaRow(name string, q *graph.Graph, qsig *measure.Signature, opts QueryOptions) (pt skyline.Point, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	db.mu.RLock()
	e, present := db.graphs[name]
	gen = db.gen
	db.mu.RUnlock()
	if !present {
		return skyline.Point{}, false, gen, false
	}
	ec := db.newEvalCtx(q, opts)
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
func (db *DB) DeltaScore(name string, q *graph.Graph, qsig *measure.Signature, m measure.Measure, opts QueryOptions) (score float64, inexact bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	db.mu.RLock()
	e, present := db.graphs[name]
	gen = db.gen
	db.mu.RUnlock()
	if !present {
		return 0, false, gen, false
	}
	ec := db.newEvalCtx(q, opts)
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
// row at generation gen. The row lands at the end of Points, matching
// the global insertion order a cold rebuild would produce. The caller
// must have proven admissibility: gen == t.Generation+1, the row was
// evaluated at exactly gen (DeltaRow's returned generation), and — for
// a pruned table — the row belongs to the kept set.
func (t *VectorTable) WithInsert(pt skyline.Point, inexact bool, gen uint64) *VectorTable {
	nt := t.WithGeneration(gen)
	nt.Points = make([]skyline.Point, len(t.Points)+1)
	copy(nt.Points, t.Points)
	nt.Points[len(t.Points)] = pt
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
	nt := t.WithGeneration(gen)
	nt.Points = make([]skyline.Point, 0, len(t.Points)-1)
	nt.Points = append(nt.Points, t.Points[:idx]...)
	nt.Points = append(nt.Points, t.Points[idx+1:]...)
	return nt, true
}
