package gdb

import (
	"context"
	"slices"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Delta maintenance primitives. A cached VectorTable or a cached ranked
// answer differs from its successor by at most one row when the
// mutation between them was a single insert or delete. DeltaRow and
// DeltaScore settle an inserted graph as a one-candidate run of the
// cold scans: the skyline scan's settle step against a front seeded
// with a pruned table's rows, and the ranked scan's settle step against
// a range collector at the answer's threshold. A candidate is therefore
// discarded only on the proofs the cold scans use, and a kept vector or
// an included score comes from the same engine calls on the same stored
// signatures, so a spliced row is byte-identical to the row a cold
// recompute would produce. Neither takes a context: a delta row is
// never stopped. The serving layer owns the provability argument (which
// cached entries a given mutation may patch); these primitives only
// guarantee row fidelity and report the generation they observed so
// the caller can detect interleaved mutations. Both take the query's
// signature from the caller, which computes it once per request rather
// than once per upgrade.

// rowSnap reads the named graph as a one-row snapshot under one lock
// acquisition: one row in one class, so a scan over it does O(1) work
// whatever the store's class count. The snapshot's generation is the
// database's; ok is false when the name is not present.
func (db *DB) rowSnap(name string) (sn snap, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sn.gen = db.gen
	e := db.byName[name]
	if e == nil {
		return sn, false
	}
	sn.graphs, sn.sigs, sn.seqs = []*graph.Graph{e.g}, []*measure.Signature{e.sig}, []uint64{e.seq}
	sn.cls, sn.classes = []int32{0}, 1
	return sn, true
}

// DeltaRow settles the single named graph against q (whose signature
// is qsig) the way the pruned skyline scan settles a candidate, with
// the scan's front seeded by rows — a pruned table's kept points. kept
// reports whether no row strictly dominates the graph's exact vector;
// pt is then that vector, byte-identical to the complete table build's
// row. With no rows the graph is always kept.
// gen is the database generation observed while reading the graph —
// callers patching a table toward generation G must see gen == G, or a
// later mutation has interleaved and the row may describe a different
// graph value (delete + re-insert of the same name). ok is false when
// the name is not present.
func (db *DB) DeltaRow(name string, q *graph.Graph, qsig *measure.Signature, rows []skyline.Point, opts QueryOptions) (pt skyline.Point, kept bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	sn, ok := db.rowSnap(name)
	if !ok {
		return skyline.Point{}, false, sn.gen, false
	}
	// A context that is never done: tier 0 cannot fail, and the engines
	// are never stopped.
	sc, _, _ := newSkyScan(context.Background(), sn, q, qsig, opts)
	sc.front = make(skyFront, len(rows), len(rows)+1)
	for i, p := range rows {
		sc.front[i] = p.Vec
	}
	sc.settle(0)
	if sc.vecs[0] == nil {
		return skyline.Point{}, false, sn.gen, true
	}
	return skyline.Point{ID: name, Vec: sc.vecs[0]}, true, sn.gen, true
}

// DeltaScore settles the single named graph against q under m the way
// the best-first ranked scan settles a candidate, against the threshold
// th: the k-th score of a full top-k answer, a range answer's radius,
// or +Inf for a top-k answer holding fewer than k items. in reports
// whether its score is at most th; score is then exact, byte-identical
// to the ranked scan's. gen and ok behave as in DeltaRow.
func (db *DB) DeltaScore(name string, q *graph.Graph, qsig *measure.Signature, m measure.Measure, th float64, opts QueryOptions) (score float64, in bool, gen uint64, ok bool) {
	opts = opts.withDefaults()
	sn, ok := db.rowSnap(name)
	if !ok {
		return 0, false, sn.gen, false
	}
	coll := newRangeCollector(th)
	// A context that is never done: tier 0 cannot fail.
	rs, claims, _ := newRankScan(context.Background(), sn, q, qsig, m, opts, coll)
	if cl, claimed := claims.pop(); claimed {
		rs.settle(int(cl.i), coll)
	}
	items := coll.items()
	if len(items) == 0 {
		return 0, false, sn.gen, true
	}
	return items[0].Score, true, sn.gen, true
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
func (t *VectorTable) WithInsert(pt skyline.Point, gen uint64) *VectorTable {
	nt := t.WithGeneration(gen)
	nt.Points = append(slices.Clip(t.Points), pt)
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
