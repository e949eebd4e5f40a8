package gdb

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// VectorTable is the GCS evaluation of one query graph against a
// snapshot of the database: one point per database graph for a complete
// table, only the candidates a pruned scan scored otherwise. It is the
// unit of caching for a query-serving layer — skyline answers for the
// same (query, basis) derive from it (Skyline, Points)
// without touching the GED/MCS engines again. Top-k and
// range answers never do: they run their own best-first scan
// (TopKQuery).
type VectorTable struct {
	// Generation is the database generation of the snapshot the rows are
	// exact at. Tables are immutable: a delta patch returns a copy.
	Generation uint64
	// Basis is the measure basis defining the vector columns.
	Basis []measure.Measure
	// Points holds the evaluated (graph, GCS vector) pairs in insertion
	// order: every database graph for a complete table, only the
	// candidates the scan scored for a pruned one — the skyline plus
	// whatever was scored before the front point that dominates it. A
	// cold build lists them in snapshot order, and a delta patch appends
	// the graph its insert added, which is last in insertion order.
	Points []skyline.Point
	// Work is what the cold build paid: Evaluated == len(Points) and
	// Pruned counts the graphs the scan excluded (0 for complete
	// tables). Delta patches leave it untouched — Deltas counts those.
	Work
	// Deltas counts the incremental patches applied since the table was
	// cold-built (see DeltaRow / WithInsert / WithDelete): each one
	// advanced the generation by exactly one mutation without
	// re-evaluating the surviving rows.
	Deltas int
}

// snap is one read of the database under a single lock acquisition:
// the stored graphs in insertion order, their signatures, their insert
// sequences (the scans' tie-break), their histogram classes and the
// generation they belong to. Every class id in cls is below classes,
// and each of those ids is some row's class.
type snap struct {
	graphs  []*graph.Graph
	sigs    []*measure.Signature
	seqs    []uint64
	cls     []int32
	classes int
	gen     uint64
}

// snapshot reads the database: four slice headers copied under the
// read lock. The store never writes below a length it has handed out
// (Insert appends, Delete builds new columns), and each column is cut
// to its length in capacity too, so no reader can append into the
// store's spare capacity either.
func (db *DB) snapshot() snap {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := len(db.graphs)
	return snap{
		graphs: db.graphs[:n:n], sigs: db.sigs[:n:n], seqs: db.seqs[:n:n], cls: db.cls[:n:n],
		classes: len(db.classes.keys), gen: db.gen,
	}
}

// VectorTable evaluates the GCS vector of every database graph against
// q as ONE scan over one snapshot of the database. Once ctx is done the
// exact engines stop, and it returns ctx.Err() with no table. It is
// the one table build: SkylineQuery and the serving layer's cached
// skyline answers both run it, and derive their answers from the table
// with zero new pair evaluations.
//
// With opts.Prune set, evaluation runs the bound-and-scan pipeline of
// prune.go instead of the full scan: signature bounds for every graph,
// then a best-first scan of all of them against one running front,
// which scores exactly only the ones no cheaper proof discards. That
// scan runs on the calling goroutine, since each kept vector prunes
// what comes after it; a complete table's pairs do not depend on each
// other and run on forEachClaim's pool. The resulting table's skyline
// is identical to the complete table's.
func (db *DB) VectorTable(ctx context.Context, q *graph.Graph, opts QueryOptions) (*VectorTable, error) {
	opts = opts.withDefaults()
	sn := db.snapshot()
	qsig := measure.NewSignature(q)
	t := &VectorTable{Generation: sn.gen, Basis: opts.Basis}
	var err error
	if opts.Prune {
		t.Points, t.Pruned, err = evalPruned(ctx, sn, q, qsig, opts)
	} else {
		t.Points, err = evalComplete(ctx, sn, q, qsig, opts)
	}
	if err != nil {
		return nil, err
	}
	t.Evaluated = len(t.Points)
	return t, nil
}

// evalComplete scores every graph of the snapshot, returning the points
// in snapshot order. Stored signatures spare the per-pair
// histogram/degree rebuild; the query's is computed once.
func evalComplete(ctx context.Context, sn snap, q *graph.Graph, qsig *measure.Signature, opts QueryOptions) ([]skyline.Point, error) {
	start := time.Now()
	pts := make([]skyline.Point, len(sn.graphs))
	eval := measure.Options{Stop: ctx.Done()}
	err := forEachClaim(ctx, len(sn.graphs), func(i int) {
		h := measure.PairHints{Sig1: sn.sigs[i], Sig2: qsig}
		ps := measure.ComputeHinted(sn.graphs[i], q, eval, h)
		pts[i] = skyline.Point{ID: sn.graphs[i].Name(), Vec: measure.GCS(&ps, opts.Basis)}
	})
	if err != nil {
		return nil, err
	}
	// The whole unpruned scan is exact-stage work: every pair runs the
	// engines, nothing is bounded away.
	opts.Trace.Observe(StageExact, time.Since(start), len(sn.graphs), 0)
	return pts, nil
}

// forEachClaim runs claim(k) for k = 0, 1, ..., n-1 on up to
// GOMAXPROCS goroutines, which claim k from one atomic cursor in order.
// It serves only evaluations whose pairs do not depend on each other:
// the complete table and the diversity matrix. A goroutine stops once
// ctx is done or the cursor passes n; claims already running finish.
// It returns ctx.Err(): an evaluation whose engines ctx's Done channel
// stopped reports an error, so nothing a stopped engine computed
// reaches an answer.
func forEachClaim(ctx context.Context, n int, claim func(k int)) error {
	var (
		wg     sync.WaitGroup
		cursor atomic.Int64
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(cursor.Add(1)) - 1
				if k >= n {
					return
				}
				claim(k)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Skyline computes the similarity skyline of the table's rows (SFS),
// in row order. No pair evaluation happens.
func (t *VectorTable) Skyline() []skyline.Point {
	return skyline.SFS(t.Points)
}
