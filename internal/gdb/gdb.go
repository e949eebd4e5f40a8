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
	"slices"
	"sync"
	"sync/atomic"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/wal"
)

// DB is the graph database: the one query and mutation surface, a
// concurrency-safe store of uniquely named graphs with a per-graph
// signature index (label histograms, degree sequence, sizes) maintained
// on insert and one generation counter that every successful mutation
// advances. Every query is ONE scan over a snapshot of the store, and
// answers come out in insertion order (ranked ones in score order).
//
// The surface: Insert / Delete / InsertAll; SkylineQuery, TopKQuery,
// RangeQuery and DiverseSkylineQuery; the table primitive a caching
// layer composes instead (VectorTable) and the single-row settles
// delta maintenance runs (DeltaRow / DeltaScore); the idempotency-key
// evidence (Keyed); and persistence (Save, WriteTo, Load, OpenDurable).
type DB struct {
	mu sync.RWMutex
	// graphs, sigs, seqs and cls are the store's columns in insertion
	// order: each graph beside its signature, insert sequence and
	// histogram class. A snapshot shares them (see snapshot), so they
	// are append-only in place: Insert appends past every reader's
	// length, Delete builds new ones.
	graphs []*graph.Graph
	sigs   []*measure.Signature
	seqs   []uint64
	cls    []int32
	// classes interns the histogram classes of the stored graphs.
	classes histClasses
	byName  map[string]*entry
	gen     uint64 // bumped on every successful insert/delete
	// keys is the idempotency-key evidence: the names each keyed
	// mutation applied (storage.go).
	keys keyTable

	// store, when set, receives every mutation BEFORE it is applied
	// (and before the caller is told it succeeded): the write-ahead
	// discipline. A store error fails the mutation with the database
	// unchanged. See OpenDurable.
	store *walStore
}

type entry struct {
	g   *graph.Graph
	sig *measure.Signature
	// seq is the graph's process-unique insert sequence: the scans'
	// tie-break between equal corners, and the graph value's identity
	// in the store's columns (Delete finds its row by it), snapshots
	// and the WAL. Deleting and re-inserting a name mints a new
	// sequence, so the two graph values never share one.
	seq uint64
}

// insertSeq mints process-unique insert sequences. Process-wide (not
// per database) so two databases in one process never collide on
// (name, seq).
//
// Once mutations persist, "process-unique" must extend across process
// restarts: a replayed graph keeps its recorded sequence, so recovery
// seeds this counter above every sequence ever persisted
// (SeedInsertSeq) before minting new ones — otherwise a freshly
// inserted graph could collide with a replayed one on (name, seq), and
// a delete + reinsert would no longer be told apart from the graph it
// replaced.
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

// New returns an empty database.
func New() *DB {
	return &DB{byName: make(map[string]*entry), classes: histClasses{ids: make(map[string]int32)}}
}

// histClasses interns a store's histogram classes
// (measure.Signature.HistogramClass) as dense ids: the live classes are
// exactly ids 0..len(keys)-1, whatever the history of deletes, so a
// scan's per-class work is O(live classes). Ids are process-local and
// never persisted: recovery re-interns as replay re-inserts.
type histClasses struct {
	ids  map[string]int32 // class key -> id
	keys []string         // keys[id] is id's key
	size []int            // size[id] counts id's stored graphs
}

// add counts one more graph in the class of key and returns its id,
// minting the next id for a new class.
func (hc *histClasses) add(key string) int32 {
	id, ok := hc.ids[key]
	if !ok {
		id = int32(len(hc.keys))
		hc.ids[key] = id
		hc.keys = append(hc.keys, key)
		hc.size = append(hc.size, 0)
	}
	hc.size[id]++
	return id
}

// remove counts one graph of class id out and returns the class column
// cls, which no longer holds that graph's row. When the class empties,
// the last id takes its place, relabeled in cls, which must be a column
// no snapshot shares.
func (hc *histClasses) remove(cls []int32, id int32) []int32 {
	if hc.size[id]--; hc.size[id] > 0 {
		return cls
	}
	delete(hc.ids, hc.keys[id])
	last := int32(len(hc.keys) - 1)
	if id != last {
		for i, c := range cls {
			if c == last {
				cls[i] = id
			}
		}
		hc.ids[hc.keys[last]] = id
		hc.keys[id], hc.size[id] = hc.keys[last], hc.size[last]
	}
	hc.keys, hc.size = hc.keys[:last], hc.size[:last]
	return cls
}

// Ack is the evidence a mutation leaves: the generation it produced (0
// when nothing changed) — the step a delta-maintaining cache uses to
// upgrade entries in place instead of invalidating them — and whether
// the name was present beforehand: a delete removed something exactly
// when Existed is set and err is nil, an insert was refused as a
// duplicate when it is.
type Ack struct {
	Gen     uint64
	Existed bool
}

// Insert adds g. The graph must be non-nil, validate and carry a
// non-empty, unused name. key is the client's idempotency key ("" =
// unkeyed): the insert notes it in the key table (Keyed) and threads it
// into the write-ahead record as durable evidence it was accepted. The
// database stores g itself; callers must not mutate a graph after
// insertion (Clone first if needed).
func (db *DB) Insert(g *graph.Graph, key string) (Ack, error) {
	return db.insert(g, 0, key)
}

// insert is Insert under an insert sequence: 0 mints a fresh one under
// the store lock, so concurrent inserts append their columns (and their
// write-ahead records) in sequence order; recovery replay passes the
// persisted one (the sequence identifies the graph VALUE, which a
// restart does not change). The returned Ack.Gen is the generation the
// insert produced: the evidence a delta-maintaining cache needs to
// prove a cached entry is exactly one mutation behind.
func (db *DB) insert(g *graph.Graph, seq uint64, key string) (Ack, error) {
	switch {
	case g == nil:
		return Ack{}, fmt.Errorf("gdb: nil graph")
	case g.Name() == "":
		return Ack{}, fmt.Errorf("gdb: graph has no name")
	}
	if err := g.Validate(); err != nil {
		return Ack{}, fmt.Errorf("gdb: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.byName[g.Name()]; dup {
		return Ack{Existed: true}, fmt.Errorf("gdb: duplicate graph name %q", g.Name())
	}
	if seq == 0 {
		seq = insertSeq.Add(1)
	}
	// Write-ahead: with every failure mode that is checkable up front
	// already rejected, log the mutation before applying it. If the
	// append fails the database is unchanged; if the process dies after
	// the append, replay applies a mutation that was never acked —
	// harmless, the client saw no success.
	if db.store != nil {
		if err := db.store.LogInsert(g, seq, key); err != nil {
			return Ack{}, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	e := &entry{g: g, sig: measure.InternSignature(g), seq: seq}
	db.byName[g.Name()] = e
	db.graphs = append(db.graphs, e.g)
	db.sigs = append(db.sigs, e.sig)
	db.seqs = append(db.seqs, e.seq)
	db.cls = append(db.cls, db.classes.add(e.sig.HistogramClass()))
	db.keys.noteInsert(key, g.Name())
	db.gen++
	return Ack{Gen: db.gen}, nil
}

// InsertAll inserts every graph unkeyed, stopping at the first error.
func (db *DB) InsertAll(gs []*graph.Graph) error {
	for _, g := range gs {
		if _, err := db.Insert(g, ""); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the graph with the given name.
func (db *DB) Get(name string) (*graph.Graph, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.byName[name]
	if !ok {
		return nil, false
	}
	return e.g, true
}

// Delete removes the named graph; Ack.Existed reports whether it was
// there. key is noted and logged like Insert's, when a graph was
// removed. err is non-nil only when the write-ahead append failed, in
// which case the graph remains.
func (db *DB) Delete(name, key string) (Ack, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byName[name]
	if !ok {
		return Ack{}, nil
	}
	if db.store != nil {
		if err := db.store.LogDelete(name, key); err != nil {
			return Ack{Existed: true}, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	delete(db.byName, name)
	// New columns: a snapshot may still read the old ones. Sequences
	// are unique, so the graph's own one finds its position.
	i := slices.Index(db.seqs, e.seq)
	db.graphs = slices.Concat(db.graphs[:i], db.graphs[i+1:])
	db.sigs = slices.Concat(db.sigs[:i], db.sigs[i+1:])
	db.seqs = slices.Concat(db.seqs[:i], db.seqs[i+1:])
	db.cls = db.classes.remove(slices.Concat(db.cls[:i], db.cls[i+1:]), db.cls[i])
	db.keys.noteDelete(key, name)
	db.gen++
	return Ack{Gen: db.gen, Existed: true}, nil
}

// Keyed reports what the mutations under idempotency key already
// applied: the names inserted under it, in insertion order, and the name
// a delete under it removed ("" when none). An unknown key, or one the
// table has since forgotten (it keeps the last 4 096 keys of each verb),
// reports nothing.
func (db *DB) Keyed(key string) (inserted []string, deleted string) {
	if key == "" {
		return nil, ""
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return slices.Clone(db.keys.inserts[key]), db.keys.deletes[key]
}

// setStore attaches the write-ahead store. db.mu is held across every
// logged mutation, so append order in the store equals the mutation
// order. Attach AFTER recovery replay.
func (db *DB) setStore(st *walStore) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.store = st
}

// Len returns the number of stored graphs.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.graphs)
}

// Names returns all graph names in insertion order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, len(db.graphs))
	for i, g := range db.graphs {
		names[i] = g.Name()
	}
	return names
}

// Graphs returns all stored graphs in insertion order.
func (db *DB) Graphs() []*graph.Graph {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return slices.Clone(db.graphs)
}

// Generation returns a counter that changes on every successful mutation
// (insert or delete). Caches that record the generation an answer is
// exact at never serve a stale one: no later read carries an old
// generation.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
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

// Stats aggregates the stored signatures; no graph structure is
// touched under the read lock.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Graphs: len(db.sigs)}
	vl, el := map[string]bool{}, map[string]bool{}
	for i, sig := range db.sigs {
		s.Vertices += sig.Order
		s.Edges += sig.Size
		for l := range sig.VHist.Labels() {
			vl[l] = true
		}
		for l := range sig.EHist.Labels() {
			el[l] = true
		}
		if i == 0 || sig.Size < s.MinSize {
			s.MinSize = sig.Size
		}
		if i == 0 || sig.Size > s.MaxSize {
			s.MaxSize = sig.Size
		}
	}
	s.VertexLabels, s.EdgeLabels = len(vl), len(el)
	return s
}

// WriteTo streams the whole database as LGF in insertion order,
// returning the bytes written per io.WriterTo.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, g := range db.Graphs() {
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
func (db *DB) Save(path string) error {
	return wal.AtomicWrite(path, func(w io.Writer) error {
		_, err := db.WriteTo(w)
		return err
	})
}

// Load reads an LGF file into a fresh database.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := graph.ReadLGF(f)
	if err != nil {
		return nil, err
	}
	db := New()
	if err := db.InsertAll(gs); err != nil {
		return nil, err
	}
	return db, nil
}
