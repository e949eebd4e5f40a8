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

// Sharded is the graph database: the one query and mutation surface, a
// concurrency-safe store of uniquely named graphs with a per-graph
// signature index (label histograms, degree sequence, sizes) maintained
// on insert and one generation counter that every successful mutation
// advances. Every query is ONE scan over a snapshot of the store, and
// answers come out in insertion order (ranked ones in score order). The
// name is historical: the store is not partitioned.
//
// The surface: Insert / Delete / InsertAll; SkylineQuery, TopKQuery,
// RangeQuery and DiverseSkylineQuery; the table primitive a caching
// layer composes instead (VectorTable) and the single-row settles
// delta maintenance runs (DeltaRow / DeltaScore); and persistence
// (Save, WriteTo, Load, OpenDurable).
type Sharded struct {
	mu sync.RWMutex
	// graphs, sigs and seqs are the store's columns in insertion order:
	// each graph beside its signature and insert sequence. A snapshot
	// shares them (see snapshot), so they are append-only in place:
	// Insert appends past every reader's length, Delete builds new ones.
	graphs []*graph.Graph
	sigs   []*measure.Signature
	seqs   []uint64
	byName map[string]*entry
	gen    uint64 // bumped on every successful insert/delete

	// store, when set, receives every mutation BEFORE it is applied
	// (and before the caller is told it succeeded): the write-ahead
	// discipline. A store error fails the mutation with the database
	// unchanged. See OpenDurable.
	store Store
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
func New() *Sharded {
	return &Sharded{byName: make(map[string]*entry)}
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
// unkeyed), threaded into the write-ahead record as durable evidence it
// was accepted. The database stores g itself; callers must not mutate
// a graph after insertion (Clone first if needed).
func (sh *Sharded) Insert(g *graph.Graph, key string) (Ack, error) {
	return sh.insert(g, insertSeq.Add(1), key)
}

// insert is Insert under a caller-supplied insert sequence: a fresh one
// for new graphs, the persisted one on recovery replay (the sequence
// identifies the graph VALUE, which a restart does not change). The
// returned Ack.Gen is the generation the insert produced: the evidence
// a delta-maintaining cache needs to prove a cached entry is exactly
// one mutation behind.
func (sh *Sharded) insert(g *graph.Graph, seq uint64, key string) (Ack, error) {
	switch {
	case g == nil:
		return Ack{}, fmt.Errorf("gdb: nil graph")
	case g.Name() == "":
		return Ack{}, fmt.Errorf("gdb: graph has no name")
	}
	if err := g.Validate(); err != nil {
		return Ack{}, fmt.Errorf("gdb: %w", err)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byName[g.Name()]; dup {
		return Ack{Existed: true}, fmt.Errorf("gdb: duplicate graph name %q", g.Name())
	}
	// Write-ahead: with every failure mode that is checkable up front
	// already rejected, log the mutation before applying it. If the
	// append fails the database is unchanged; if the process dies after
	// the append, replay applies a mutation that was never acked —
	// harmless, the client saw no success.
	if sh.store != nil {
		if err := sh.store.LogInsert(g, seq, key); err != nil {
			return Ack{}, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	e := &entry{g: g, sig: measure.InternSignature(g), seq: seq}
	sh.byName[g.Name()] = e
	sh.graphs = append(sh.graphs, e.g)
	sh.sigs = append(sh.sigs, e.sig)
	sh.seqs = append(sh.seqs, e.seq)
	sh.gen++
	return Ack{Gen: sh.gen}, nil
}

// InsertAll inserts every graph unkeyed, stopping at the first error.
func (sh *Sharded) InsertAll(gs []*graph.Graph) error {
	for _, g := range gs {
		if _, err := sh.Insert(g, ""); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the graph with the given name.
func (sh *Sharded) Get(name string) (*graph.Graph, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.byName[name]
	if !ok {
		return nil, false
	}
	return e.g, true
}

// Delete removes the named graph; Ack.Existed reports whether it was
// there. key rides into the write-ahead record like Insert's. err is
// non-nil only when the write-ahead append failed, in which case the
// graph remains.
func (sh *Sharded) Delete(name, key string) (Ack, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.byName[name]
	if !ok {
		return Ack{}, nil
	}
	if sh.store != nil {
		if err := sh.store.LogDelete(name, key); err != nil {
			return Ack{Existed: true}, fmt.Errorf("gdb: %w: wal append: %w", ErrNotPersisted, err)
		}
	}
	delete(sh.byName, name)
	// New columns: a snapshot may still read the old ones. Sequences
	// are unique, so the graph's own one finds its position.
	i := slices.Index(sh.seqs, e.seq)
	sh.graphs = slices.Concat(sh.graphs[:i], sh.graphs[i+1:])
	sh.sigs = slices.Concat(sh.sigs[:i], sh.sigs[i+1:])
	sh.seqs = slices.Concat(sh.seqs[:i], sh.seqs[i+1:])
	sh.gen++
	return Ack{Gen: sh.gen, Existed: true}, nil
}

// setStore attaches the write-ahead store. sh.mu is held across every
// logged mutation, so append order in the store equals the mutation
// order. Attach AFTER recovery replay; pass nil to detach.
func (sh *Sharded) setStore(st Store) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.store = st
}

// Len returns the number of stored graphs.
func (sh *Sharded) Len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.graphs)
}

// Names returns all graph names in insertion order.
func (sh *Sharded) Names() []string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	names := make([]string, len(sh.graphs))
	for i, g := range sh.graphs {
		names[i] = g.Name()
	}
	return names
}

// Graphs returns all stored graphs in insertion order.
func (sh *Sharded) Graphs() []*graph.Graph {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Clone(sh.graphs)
}

// Generation returns a counter that changes on every successful mutation
// (insert or delete). Caches that record the generation an answer is
// exact at never serve a stale one: no later read carries an old
// generation.
func (sh *Sharded) Generation() uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.gen
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
func (sh *Sharded) Stats() Stats {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := Stats{Graphs: len(sh.sigs)}
	vl, el := map[string]bool{}, map[string]bool{}
	for i, sig := range sh.sigs {
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

// Load reads an LGF file into a fresh database.
func Load(path string) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := graph.ReadLGF(f)
	if err != nil {
		return nil, err
	}
	sh := New()
	if err := sh.InsertAll(gs); err != nil {
		return nil, err
	}
	return sh, nil
}
