// Package gdb implements the graph database underneath the similarity
// skyline query engine: named graph storage, LGF persistence, a
// label-histogram index providing cheap edit-distance lower bounds, and
// parallel evaluation of compound similarity vectors.
package gdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/wal"
)

// DB is one shard of a Sharded database: a concurrency-safe store of
// uniquely named graphs with a per-graph signature index (label
// histograms, degree sequence, sizes) maintained on insert, its own
// generation counter, and the single-row reads delta maintenance
// needs (DeltaBound / DeltaRow / DeltaScore). It evaluates no query and
// is not a mutation surface: graphs come and go through the owning
// Sharded (which keeps the global insertion order), and every query is
// one scan of Sharded's over a snapshot of all shards.
type DB struct {
	mu     sync.RWMutex
	names  []string // insertion order
	graphs map[string]*entry
	gen    uint64 // bumped on every successful insert/delete

	// memo, when set, is the cross-query exact-score memo consulted and
	// fed by every evaluation path (see Sharded.EnableScoreMemo).
	memo *ScoreMemo
	// store, when set, receives every mutation BEFORE it is applied
	// (and before the caller is told it succeeded): the write-ahead
	// discipline. A store error fails the mutation with the database
	// unchanged. See OpenDurable.
	store Store
}

type entry struct {
	g   *graph.Graph
	sig *measure.Signature
	// seq is the graph's process-unique insert sequence: the
	// generational key of the score memo. Deleting and re-inserting a
	// name mints a new sequence, so memo entries of the old graph can
	// never be served for the new one.
	seq uint64
}

// insertSeq mints process-unique insert sequences. Process-wide (not
// per DB) so one score memo can be shared across shards without two
// different graphs ever colliding on (name, seq).
//
// Once mutations persist, "process-unique" must extend across process
// restarts: a replayed graph keeps its recorded sequence, so recovery
// seeds this counter above every sequence ever persisted
// (SeedInsertSeq) before minting new ones — otherwise a freshly
// inserted graph could collide with a replayed one on (name, seq) and
// the score memo's delete+reinsert safety argument would break.
var insertSeq atomic.Uint64

// ErrNotPersisted marks mutation failures caused by the write-ahead
// store rather than the request itself (duplicate name, bad graph):
// the append failed, the database is unchanged, and the caller must
// not report success. Callers distinguish it with errors.Is.
var ErrNotPersisted = errors.New("mutation not persisted")

// InsertSeqHighWater returns the largest insert sequence minted so far
// (process-wide). Clients use it with idempotency keys: a mutation
// acked at or below the high-water of a recovered server has either
// survived or is individually checkable, so retries after an ambiguous
// failure can be decided safely.
func InsertSeqHighWater() uint64 { return insertSeq.Load() }

// SeedInsertSeq raises the insert-sequence counter to at least min:
// sequences minted afterwards are strictly greater. Recovery calls it
// with the largest sequence found in the snapshot manifest and the
// replayed WAL records; raising is monotone, so concurrent callers
// (multiple durable databases in one process) compose safely.
func SeedInsertSeq(min uint64) {
	for {
		cur := insertSeq.Load()
		if cur >= min || insertSeq.CompareAndSwap(cur, min) {
			return
		}
	}
}

// newDB returns an empty shard.
func newDB() *DB {
	return &DB{graphs: make(map[string]*entry)}
}

// insert adds g under the caller-supplied insert sequence — freshly
// minted for a new graph, the persisted one on recovery replay (the
// sequence identifies the graph VALUE, which a restart does not
// change). The graph must validate, carry a non-empty name, and the
// name must be unused (Sharded.insert has refused nil). key is the
// client's idempotency key, logged into the write-ahead record as
// durable evidence it was accepted (see Store.LogInsert). The returned
// generation is the one the insert produced: the evidence a
// delta-maintaining cache needs to prove a cached entry is exactly one
// mutation behind. The shard stores g itself; callers must not mutate a
// graph after insertion.
func (db *DB) insert(g *graph.Graph, seq uint64, key string) (gen uint64, err error) {
	if g.Name() == "" {
		return 0, fmt.Errorf("gdb: graph has no name")
	}
	if err := g.Validate(); err != nil {
		return 0, fmt.Errorf("gdb: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.graphs[g.Name()]; dup {
		return 0, fmt.Errorf("gdb: duplicate graph name %q", g.Name())
	}
	// Write-ahead: with every failure mode that is checkable up front
	// already rejected, log the mutation before applying it. If the
	// append fails the database is unchanged; if the process dies after
	// the append, replay applies a mutation that was never acked —
	// harmless, the client saw no success.
	if db.store != nil {
		if err := db.store.LogInsert(g, seq, key); err != nil {
			return 0, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	e := &entry{g: g, sig: measure.NewSignature(g), seq: seq}
	db.graphs[g.Name()] = e
	db.names = append(db.names, g.Name())
	db.gen++
	return db.gen, nil
}

// seqOf returns the named graph's insert sequence.
func (db *DB) seqOf(name string) (uint64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.graphs[name]
	if !ok {
		return 0, false
	}
	return e.seq, true
}

// Get returns the graph with the given name.
func (db *DB) Get(name string) (*graph.Graph, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.graphs[name]
	if !ok {
		return nil, false
	}
	return e.g, true
}

// delete removes the named graph. existed reports whether the name was
// present; gen is the generation the delete produced (0 when nothing
// was deleted); err is non-nil only when the write-ahead append failed,
// in which case the graph remains. key is logged like insert's.
func (db *DB) delete(name, key string) (existed bool, gen uint64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.graphs[name]; !ok {
		return false, 0, nil
	}
	if db.store != nil {
		if err := db.store.LogDelete(name, key); err != nil {
			return true, 0, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	delete(db.graphs, name)
	for i, n := range db.names {
		if n == name {
			db.names = append(db.names[:i], db.names[i+1:]...)
			break
		}
	}
	db.gen++
	return true, db.gen, nil
}

// setScoreMemo attaches the cross-query exact-score memo (one memo
// shared by every shard; see Sharded.EnableScoreMemo).
func (db *DB) setScoreMemo(m *ScoreMemo) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.memo = m
}

// setStore attaches the write-ahead store (see Sharded.setStore).
func (db *DB) setStore(st Store) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.store = st
}

// Memo returns the attached score memo (nil when disabled).
func (db *DB) Memo() *ScoreMemo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.memo
}

// Generation returns a counter that changes on every successful mutation
// (insert or delete). Caches keyed by (generation, query) are therefore
// automatically invalidated by any database change: stale entries can
// never be served because no future lookup carries an old generation.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Len returns the number of stored graphs.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.names)
}

// Stats summarizes the database contents.
type Stats struct {
	Graphs       int
	Vertices     int
	Edges        int
	VertexLabels int
	EdgeLabels   int
	MinSize      int
	MaxSize      int
}

// statsAndLabels aggregates the stored signatures — no graph structure
// is touched under the read lock — and returns the distinct label sets
// too; shard aggregation needs the sets because distinct counts union
// rather than sum.
func (db *DB) statsAndLabels() (Stats, map[string]bool, map[string]bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Graphs: len(db.names)}
	vl, el := map[string]bool{}, map[string]bool{}
	first := true
	for _, n := range db.names {
		sig := db.graphs[n].sig
		s.Vertices += sig.Order
		s.Edges += sig.Size
		for l := range sig.VHist.Labels() {
			vl[l] = true
		}
		for l := range sig.EHist.Labels() {
			el[l] = true
		}
		if first || sig.Size < s.MinSize {
			s.MinSize = sig.Size
		}
		if first || sig.Size > s.MaxSize {
			s.MaxSize = sig.Size
		}
		first = false
	}
	s.VertexLabels, s.EdgeLabels = len(vl), len(el)
	return s, vl, el
}

// WriteTo streams the whole database as LGF in global insertion order,
// returning the bytes written per io.WriterTo.
func (sh *Sharded) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, g := range sh.Graphs() {
		if err := graph.WriteLGF(cw, g); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Save writes the database to path as LGF. The write is atomic and
// durable: the content lands in a temp file that is fsynced and then
// renamed over path (with the directory entry fsynced too), so a crash
// mid-save leaves the previous file intact rather than a truncated or
// torn one.
func (sh *Sharded) Save(path string) error {
	return wal.AtomicWrite(path, func(w io.Writer) error {
		_, err := sh.WriteTo(w)
		return err
	})
}

// Load reads an LGF file into a fresh n-shard database.
func Load(path string, n int) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := graph.ReadLGF(f)
	if err != nil {
		return nil, err
	}
	sh := NewSharded(n)
	if err := sh.InsertAll(gs); err != nil {
		return nil, err
	}
	return sh, nil
}
