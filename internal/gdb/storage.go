package gdb

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"skygraph/internal/fault"
	"skygraph/internal/graph"
	"skygraph/internal/wal"
)

// walStore receives every database mutation BEFORE it is applied (and
// before the caller is told it succeeded) — the write-ahead contract.
// An error from either method fails the mutation with the database
// unchanged. It is called under the database's mutation lock, so calls
// arrive in exactly the global mutation order and need no ordering
// logic of their own.
//
// Inserts carry the LGF-encoded graph as their payload, deletes just
// the name. The idempotency key ("" = unkeyed) rides along in the
// record, so an accepted keyed mutation leaves durable evidence of its
// key: recovery replays it into the database's key table (see
// keyTable) instead of guessing from surviving state.
//
// Each method first fires its store-level failpoint (fault.StoreInsert,
// fault.StoreDelete): chaos runs fail mutations there before they reach
// the WAL at all (the "store is sick but the log is fine" shape),
// independently of the WAL's own fs-level failpoints. Every durable
// database is injectable; a disarmed failpoint costs one atomic load
// per mutation.
type walStore struct {
	log *wal.Log
}

func (s *walStore) LogInsert(g *graph.Graph, seq uint64, key string) error {
	if err := fault.Hit(fault.StoreInsert).Do(); err != nil {
		return err
	}
	_, err := s.log.Append(wal.Record{
		Op:   wal.OpInsert,
		Seq:  seq,
		Name: g.Name(),
		Key:  key,
		Data: []byte(graph.MarshalLGF(g)),
	})
	return err
}

func (s *walStore) LogDelete(name, key string) error {
	if err := fault.Hit(fault.StoreDelete).Do(); err != nil {
		return err
	}
	_, err := s.log.Append(wal.Record{Op: wal.OpDelete, Name: name, Key: key})
	return err
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the data directory (created if missing). It holds the WAL
	// segments, the snapshot files and the MANIFEST.
	Dir string
	// Shards is ignored: the in-memory database is one store.
	//
	// Deprecated: kept only so the benchmark harness, which still sets
	// it, keeps compiling; the harness catch-up change (ROADMAP.md item
	// 1) removes it.
	Shards int
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncInterval flush period (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes overrides the WAL segment rotation size.
	SegmentBytes int64
}

// RecoveryInfo reports what OpenDurable rebuilt from disk.
type RecoveryInfo struct {
	// ManifestLSN is the snapshot coverage point replay started above
	// (0 when no manifest existed).
	ManifestLSN uint64
	// SnapshotGraphs is the number of graphs loaded from the snapshot.
	SnapshotGraphs int
	// ReplayedRecords is the number of WAL records applied on top.
	ReplayedRecords uint64
	// RepairedBytes and DroppedSegments report torn-tail repair work the
	// WAL open performed (0 after a clean shutdown).
	RepairedBytes   int64
	DroppedSegments int
	// MaxSeq is the insert-sequence high-water mark the process counter
	// was seeded with.
	MaxSeq uint64
	// Duration is the wall time of the whole recovery.
	Duration time.Duration
}

// Durable binds an in-memory database to a data directory:
// every mutation is write-ahead logged, Snapshot cuts an atomic
// point-in-time copy that lets the log be reclaimed, and OpenDurable
// rebuilds the exact database (same graphs, same insertion order, same
// insert sequences) from whatever the directory holds.
type Durable struct {
	// DB is the recovered database. Mutate it only through DB's
	// methods — Durable's snapshot consistency relies on DB's
	// mutation lock covering both the WAL append and the in-memory
	// apply.
	DB *DB

	dir      string
	log      *wal.Log
	opts     DurableOptions
	recovery RecoveryInfo

	mu            sync.Mutex // serializes Snapshot against Close
	closed        bool
	snapshots     uint64
	lastSnapLSN   uint64
	lastSnapCount int
}

// OpenDurable opens (or initializes) the data directory and returns
// the recovered database bound to it. Recovery loads the manifest's
// snapshot, replays every WAL record above the manifest LSN, seeds the
// process insert-sequence counter above every persisted sequence, and
// only then attaches the write-ahead store — so replay never re-logs.
func OpenDurable(opts DurableOptions) (*Durable, error) {
	start := time.Now()
	if opts.Dir == "" {
		return nil, fmt.Errorf("gdb: durable: empty data directory")
	}
	d := &Durable{dir: opts.Dir, opts: opts, DB: New()}

	m, err := wal.LoadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	var afterLSN, maxSeq uint64
	if m != nil {
		afterLSN, maxSeq = m.LSN, m.MaxSeq
		d.recovery.ManifestLSN = m.LSN
		d.lastSnapLSN = m.LSN
		d.lastSnapCount = m.Graphs
		d.DB.keys.seed(m.InsertKeys, m.DeleteKeys)
		if m.Snapshot != "" {
			err := wal.ReadSnapshot(filepath.Join(opts.Dir, m.Snapshot), func(rec wal.Record) error {
				return d.applyRecord(rec, &maxSeq)
			})
			if err != nil {
				return nil, fmt.Errorf("gdb: durable: loading snapshot: %w", err)
			}
			d.recovery.SnapshotGraphs = d.DB.Len()
		}
	}

	log, err := wal.Open(opts.Dir, wal.Options{
		Sync:         opts.Sync,
		SyncEvery:    opts.SyncEvery,
		SegmentBytes: opts.SegmentBytes,
		StartLSN:     afterLSN + 1,
	})
	if err != nil {
		return nil, err
	}
	err = log.Replay(afterLSN, func(lsn uint64, rec wal.Record) error {
		d.recovery.ReplayedRecords++
		return d.applyRecord(rec, &maxSeq)
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("gdb: durable: replay: %w", err)
	}

	SeedInsertSeq(maxSeq)
	ws := log.Stats()
	d.recovery.RepairedBytes = ws.RepairedBytes
	d.recovery.DroppedSegments = ws.DroppedSegments
	d.recovery.MaxSeq = maxSeq
	d.recovery.Duration = time.Since(start)
	d.log = log
	// From here on, mutations are logged (past the store failpoints, so
	// chaos tests can fail them at will; disarmed they are no-ops).
	d.DB.setStore(&walStore{log: log})
	return d, nil
}

// applyRecord applies one recovered record (snapshot entry or replayed
// WAL record) to the in-memory database, tracking the largest insert
// sequence seen. The record's own idempotency key goes through with it,
// so the database notes it as a live mutation would. No store is
// attached yet, so nothing is re-logged.
func (d *Durable) applyRecord(rec wal.Record, maxSeq *uint64) error {
	switch rec.Op {
	case wal.OpInsert:
		g, err := graph.ParseLGF(string(rec.Data))
		if err != nil {
			return fmt.Errorf("decoding graph %q: %w", rec.Name, err)
		}
		if rec.Seq > *maxSeq {
			*maxSeq = rec.Seq
		}
		_, err = d.DB.insert(g, rec.Seq, rec.Key)
		return err
	case wal.OpDelete:
		// A delete of an absent name is possible only for a mutation that
		// was logged but never acked (crash in between); dropping it is
		// exactly right.
		_, err := d.DB.Delete(rec.Name, rec.Key)
		return err
	case wal.OpNoop:
		// Health-probe records carry no state.
		return nil
	default:
		return fmt.Errorf("unknown opcode %d", rec.Op)
	}
}

// keyCap bounds each side of the key table (and so the manifest's key
// section): past it the oldest key is forgotten, which turns its next
// retry into an honest 409/404 instead of growing the root without
// bound.
const keyCap = 4096

// keyTable is the database's idempotency-key evidence: which keyed
// mutations it already holds. It lives in DB under db.mu and is filled
// where a keyed mutation applies (insert and Delete), live and during
// recovery's replay alike, so an in-memory database and a durable one
// keep the same evidence. A durable one also seeds it from the manifest
// at open and writes it back at each snapshot cut, which is what lets
// the evidence outlive the reclaimed log segments that carried it.
// Insertion order is kept for FIFO capping and stable manifests.
// noteInsert dedups names per key, so the overlap between the manifest
// table and the un-reclaimed log suffix is harmless.
type keyTable struct {
	inserts  map[string][]string
	insOrder []string
	deletes  map[string]string
	delOrder []string
}

func (t *keyTable) noteInsert(key, name string) {
	if key == "" {
		return
	}
	if t.inserts == nil {
		t.inserts = make(map[string][]string)
	}
	names, known := t.inserts[key]
	if slices.Contains(names, name) {
		return
	}
	t.inserts[key] = append(names, name)
	if !known {
		t.insOrder = append(t.insOrder, key)
		if len(t.insOrder) > keyCap {
			delete(t.inserts, t.insOrder[0])
			t.insOrder = t.insOrder[1:]
		}
	}
}

func (t *keyTable) noteDelete(key, name string) {
	if key == "" {
		return
	}
	if t.deletes == nil {
		t.deletes = make(map[string]string)
	}
	if _, known := t.deletes[key]; !known {
		t.delOrder = append(t.delOrder, key)
		if len(t.delOrder) > keyCap {
			delete(t.deletes, t.delOrder[0])
			t.delOrder = t.delOrder[1:]
		}
	}
	t.deletes[key] = name
}

// seed loads the manifest's key section (oldest first, called before
// the database is shared).
func (t *keyTable) seed(ins []wal.ManifestInsertKey, del []wal.ManifestDeleteKey) {
	for _, k := range ins {
		for _, n := range k.Names {
			t.noteInsert(k.Key, n)
		}
	}
	for _, k := range del {
		t.noteDelete(k.Key, k.Name)
	}
}

// manifest returns the table in manifest form, oldest key first.
func (t *keyTable) manifest() ([]wal.ManifestInsertKey, []wal.ManifestDeleteKey) {
	var ins []wal.ManifestInsertKey
	for _, k := range t.insOrder {
		ins = append(ins, wal.ManifestInsertKey{Key: k, Names: slices.Clone(t.inserts[k])})
	}
	var del []wal.ManifestDeleteKey
	for _, k := range t.delOrder {
		del = append(del, wal.ManifestDeleteKey{Key: k, Name: t.deletes[k]})
	}
	return ins, del
}

// Snapshot cuts a point-in-time copy of the database, commits it with
// an atomic manifest replace, prunes superseded snapshot files and
// reclaims fully covered WAL segments. A snapshot that would cover no
// new records is a no-op. Safe to call concurrently with queries and
// mutations: the cut itself briefly excludes mutations, everything
// after works from the copy.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("gdb: durable: closed")
	}

	// Cut under the mutation lock: every mutation appends to the WAL and
	// applies in memory under db.mu, so state and LastLSN agree here.
	type snapEntry struct {
		name string
		seq  uint64
		data []byte
	}
	d.DB.mu.RLock()
	lsn := d.log.LastLSN()
	maxSeq := insertSeq.Load()
	cut := make([]snapEntry, len(d.DB.graphs))
	for i, g := range d.DB.graphs {
		cut[i] = snapEntry{name: g.Name(), seq: d.DB.seqs[i], data: []byte(graph.MarshalLGF(g))}
	}
	// The key table is cut inside the same mutation-exclusion window:
	// every keyed record at or below lsn has already been noted, so the
	// manifest's evidence covers exactly the log it lets be reclaimed.
	insKeys, delKeys := d.DB.keys.manifest()
	d.DB.mu.RUnlock()

	if lsn == d.lastSnapLSN {
		return nil // nothing new since the last snapshot
	}

	name := ""
	if len(cut) > 0 {
		var err error
		name, err = wal.WriteSnapshot(d.dir, lsn, func(sink func(wal.Record) error) error {
			for _, e := range cut {
				rec := wal.Record{Op: wal.OpInsert, Seq: e.seq, Name: e.name, Data: e.data}
				if err := sink(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	err := wal.WriteManifest(d.dir, wal.Manifest{
		LSN:        lsn,
		MaxSeq:     maxSeq,
		Snapshot:   name,
		Graphs:     len(cut),
		InsertKeys: insKeys,
		DeleteKeys: delKeys,
	})
	if err != nil {
		return err
	}
	d.snapshots++
	d.lastSnapLSN = lsn
	d.lastSnapCount = len(cut)
	// Best-effort housekeeping: the state is already committed, and a
	// failure here only leaves extra files the next snapshot retries.
	_ = wal.PruneSnapshots(d.dir, name)
	_ = d.log.Reclaim(lsn)
	return nil
}

// Close flushes the WAL and closes it. Mutations after Close fail (the
// attached store refuses appends); the database stays queryable.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}

// Sync flushes appended WAL records to stable storage regardless of
// the fsync policy.
func (d *Durable) Sync() error { return d.log.Sync() }

// Probe exercises the full append+fsync path with a no-op record and
// reports whether it worked — the health state machine's "is the disk
// writable again?" check. A successful probe proves a real mutation
// would have persisted; the record itself is skipped on replay.
func (d *Durable) Probe() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("gdb: durable: closed")
	}
	if _, err := d.log.Append(wal.Record{Op: wal.OpNoop}); err != nil {
		return err
	}
	return d.log.Sync()
}

// Dir returns the data directory.
func (d *Durable) Dir() string { return d.dir }

// Recovery returns what OpenDurable rebuilt from disk.
func (d *Durable) Recovery() RecoveryInfo { return d.recovery }

// DurabilityStats is a point-in-time view of the persistence layer for
// the serving layer's stats and metrics endpoints.
type DurabilityStats struct {
	Dir            string
	Sync           string
	WAL            wal.Stats
	Recovery       RecoveryInfo
	Snapshots      uint64
	LastSnapLSN    uint64
	LastSnapGraphs int
}

// Stats returns the persistence layer's counters.
func (d *Durable) Stats() DurabilityStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DurabilityStats{
		Dir:            d.dir,
		Sync:           d.opts.Sync.String(),
		WAL:            d.log.Stats(),
		Recovery:       d.recovery,
		Snapshots:      d.snapshots,
		LastSnapLSN:    d.lastSnapLSN,
		LastSnapGraphs: d.lastSnapCount,
	}
}
