package gdb

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"skygraph/internal/graph"
	"skygraph/internal/wal"
)

// storageGraphs returns n deterministic small molecule graphs named
// d000, d001, ...
func storageGraphs(seed int64, n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		g := graph.Molecule(5+i%4, rng)
		g.SetName(fmt.Sprintf("d%03d", i))
		out[i] = g
	}
	return out
}

// fingerprint captures the full observable state of a database: every
// graph in insertion order with its insert sequence and LGF encoding.
// Two databases with equal fingerprints are byte-identical as far as
// any query can tell.
func fingerprint(sh *DB) string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var b strings.Builder
	for i, g := range sh.graphs {
		fmt.Fprintf(&b, "%s#%d\n%s", g.Name(), sh.seqs[i], graph.MarshalLGF(g))
	}
	return b.String()
}

// seqOf returns the named graph's insert sequence (0 when absent).
func seqOf(sh *DB, name string) uint64 {
	sn, ok := sh.rowSnap(name)
	if !ok {
		return 0
	}
	return sn.seqs[0]
}

// reopen recovers the data directory and returns the durable handle;
// the caller must Close it.
func reopen(t *testing.T, dir string) *Durable {
	t.Helper()
	d, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return d
}

func TestDurableEmptyDir(t *testing.T) {
	dir := t.TempDir()
	d := reopen(t, dir)
	if d.DB.Len() != 0 {
		t.Fatalf("fresh dir recovered %d graphs", d.DB.Len())
	}
	if rec := d.Recovery(); rec.ReplayedRecords != 0 || rec.SnapshotGraphs != 0 {
		t.Fatalf("fresh dir recovery reported work: %+v", rec)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A second open of a never-mutated directory must also be clean.
	d2 := reopen(t, dir)
	defer d2.Close()
	if d2.DB.Len() != 0 {
		t.Fatalf("reopened fresh dir recovered %d graphs", d2.DB.Len())
	}
}

// TestDurableRoundTrip is the recovery equivalence harness:
// a mutation history (inserts, deletes, a delete+reinsert) must recover
// byte-identically — same graphs, same insertion order, same insert
// sequences — and identical state must yield identical skyline answers.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gs := storageGraphs(7, 16)

	d := reopen(t, dir)
	if err := d.DB.InsertAll(gs[:14]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for _, name := range []string{"d003", "d007", "d010"} {
		if ack, err := d.DB.Delete(name, ""); !ack.Existed || err != nil {
			t.Fatalf("delete %s: ack=%+v err=%v", name, ack, err)
		}
	}
	// Delete + reinsert the same name: recovery must preserve the NEW
	// sequence, or the reinserted graph's identity (and the scans'
	// tie-break) would change across a restart.
	reins := gs[3].Clone()
	if _, err := d.DB.Insert(reins, ""); err != nil {
		t.Fatalf("reinsert d003: %v", err)
	}
	if err := d.DB.InsertAll(gs[14:]); err != nil {
		t.Fatalf("insert tail: %v", err)
	}
	want := fingerprint(d.DB)
	q := storageGraphs(99, 1)[0]
	wantSky, err := d.DB.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatalf("reference skyline: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := reopen(t, dir)
	if got := fingerprint(r.DB); got != want {
		t.Fatalf("recovered state differs\nwant:\n%s\ngot:\n%s", want, got)
	}
	gotSky, err := r.DB.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatalf("skyline: %v", err)
	}
	if len(gotSky.Skyline) != len(wantSky.Skyline) {
		t.Fatalf("skyline size %d, want %d", len(gotSky.Skyline), len(wantSky.Skyline))
	}
	for i := range wantSky.Skyline {
		w, g := wantSky.Skyline[i], gotSky.Skyline[i]
		if w.ID != g.ID {
			t.Fatalf("skyline member %d is %s, want %s", i, g.ID, w.ID)
		}
		for j := range w.Vec {
			if w.Vec[j] != g.Vec[j] {
				t.Fatalf("%s vec[%d]=%v, want %v", w.ID, j, g.Vec[j], w.Vec[j])
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDurableSnapshotReclaim verifies the snapshot cycle: a snapshot
// commits atomically, reclaims covered WAL segments, and recovery from
// snapshot + remaining log reproduces the exact state.
func TestDurableSnapshotReclaim(t *testing.T) {
	dir := t.TempDir()
	gs := storageGraphs(11, 20)

	d, err := OpenDurable(DurableOptions{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := d.DB.InsertAll(gs[:12]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	before := d.Stats().WAL
	if before.Segments < 2 {
		t.Fatalf("want rotation before snapshot, got %d segments", before.Segments)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st := d.Stats()
	if st.Snapshots != 1 || st.LastSnapGraphs != 12 {
		t.Fatalf("snapshot stats: %+v", st)
	}
	if st.WAL.Segments >= before.Segments {
		t.Fatalf("snapshot reclaimed nothing: %d -> %d segments", before.Segments, st.WAL.Segments)
	}
	// A second snapshot with no new records must be a no-op.
	if err := d.Snapshot(); err != nil {
		t.Fatalf("idle Snapshot: %v", err)
	}
	if got := d.Stats().Snapshots; got != 1 {
		t.Fatalf("idle snapshot was cut anyway (%d total)", got)
	}

	// Mutations after the snapshot land in the log and replay on top.
	if err := d.DB.InsertAll(gs[12:]); err != nil {
		t.Fatalf("insert after snapshot: %v", err)
	}
	if ack, err := d.DB.Delete("d001", ""); !ack.Existed || err != nil {
		t.Fatalf("delete after snapshot: ack=%+v err=%v", ack, err)
	}
	want := fingerprint(d.DB)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := reopen(t, dir)
	defer r.Close()
	rec := r.Recovery()
	if rec.SnapshotGraphs != 12 {
		t.Fatalf("recovered %d snapshot graphs, want 12", rec.SnapshotGraphs)
	}
	if rec.ReplayedRecords != uint64(len(gs)-12)+1 {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedRecords, len(gs)-12+1)
	}
	if got := fingerprint(r.DB); got != want {
		t.Fatalf("recovered state differs\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestInsertSeqHighWaterRestart is the regression test for the
// insert-sequence counter restarting at zero: a recovered database must
// mint fresh sequences strictly above every sequence it replayed, even
// ones far beyond the current process counter.
func TestInsertSeqHighWaterRestart(t *testing.T) {
	dir := t.TempDir()
	high := insertSeq.Load() + 1_000_000

	// Forge a WAL whose records carry sequences the current process has
	// never minted — what a restart into an old data directory sees.
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	g := storageGraphs(3, 1)[0]
	if _, err := log.Append(wal.Record{
		Op: wal.OpInsert, Seq: high, Name: g.Name(), Data: []byte(graph.MarshalLGF(g)),
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d := reopen(t, dir)
	defer d.Close()
	if seq := seqOf(d.DB, g.Name()); seq != high {
		t.Fatalf("replayed graph carries seq %d, want %d", seq, high)
	}
	fresh := storageGraphs(4, 2)[1]
	fresh.SetName("fresh")
	if _, err := d.DB.Insert(fresh, ""); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if seq := seqOf(d.DB, "fresh"); seq <= high {
		t.Fatalf("fresh insert minted seq %d, not above the recovered high-water mark %d", seq, high)
	}
}

// mutationTrace drives a deterministic mutation history against a
// durable database, recording after every mutation the WAL's byte size
// and the database fingerprint — the ground truth for the torture
// tests: truncating the log at byte X must recover exactly the state
// after the last mutation whose record ends at or before X.
type mutationTrace struct {
	dir    string
	bounds []int64  // bounds[i] = WAL bytes after mutation i (bounds[0]=0)
	prints []string // prints[i] = fingerprint after mutation i
}

func buildTrace(t *testing.T, dir string) mutationTrace {
	t.Helper()
	gs := storageGraphs(23, 18)
	d, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	tr := mutationTrace{dir: dir, bounds: []int64{0}, prints: []string{fingerprint(d.DB)}}
	record := func() {
		tr.bounds = append(tr.bounds, int64(d.Stats().WAL.SizeBytes))
		tr.prints = append(tr.prints, fingerprint(d.DB))
	}
	for i, g := range gs {
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Fatalf("insert %s: %v", g.Name(), err)
		}
		record()
		if i%5 == 4 {
			victim := gs[i-2].Name()
			if ack, err := d.DB.Delete(victim, ""); !ack.Existed || err != nil {
				t.Fatalf("delete %s: ack=%+v err=%v", victim, ack, err)
			}
			record()
		}
	}
	return tr
}

// walSegment returns the single WAL segment file of a trace directory
// (the default segment size keeps the whole history in one file).
func walSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one WAL segment in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// copyTraceDir clones the data directory so each torture trial damages
// its own copy.
func copyTraceDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
	return dst
}

// prefixAt returns the index of the last mutation whose record ends at
// or before byte offset x.
func (tr mutationTrace) prefixAt(x int64) int {
	p := 0
	for i, b := range tr.bounds {
		if b <= x {
			p = i
		}
	}
	return p
}

// TestDurableTortureTruncate cuts the WAL at random byte offsets —
// simulating a crash mid-append — and asserts recovery lands exactly on
// the surviving record prefix, never a torn or partial state.
func TestDurableTortureTruncate(t *testing.T) {
	base := t.TempDir()
	tr := buildTrace(t, base)
	total := tr.bounds[len(tr.bounds)-1]
	rng := rand.New(rand.NewSource(41))

	offsets := []int64{0, 1, total - 1, total}
	for i := 0; i < 12; i++ {
		offsets = append(offsets, rng.Int63n(total+1))
	}
	for _, off := range offsets {
		dir := copyTraceDir(t, base)
		if err := os.Truncate(walSegment(t, dir), off); err != nil {
			t.Fatalf("truncate at %d: %v", off, err)
		}
		d := reopen(t, dir)
		wantIdx := tr.prefixAt(off)
		if got := fingerprint(d.DB); got != tr.prints[wantIdx] {
			t.Errorf("truncate at byte %d: recovered state is not the %d-mutation prefix", off, wantIdx)
		}
		if off < total && d.Recovery().RepairedBytes == 0 && tr.bounds[wantIdx] != off {
			// A cut strictly inside a record must be detected and repaired.
			t.Errorf("truncate at byte %d: mid-record cut reported no repair", off)
		}
		// The repaired log must accept new mutations.
		g := storageGraphs(77, 1)[0]
		g.SetName("post-repair")
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Errorf("truncate at byte %d: insert after repair: %v", off, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestDurableTortureByteFlip corrupts single bytes — simulating disk
// damage — and asserts the CRC check rejects the damaged record and
// everything after it, recovering the longest trustworthy prefix.
func TestDurableTortureByteFlip(t *testing.T) {
	base := t.TempDir()
	tr := buildTrace(t, base)
	total := tr.bounds[len(tr.bounds)-1]
	rng := rand.New(rand.NewSource(43))

	for i := 0; i < 12; i++ {
		off := rng.Int63n(total)
		dir := copyTraceDir(t, base)
		seg := walSegment(t, dir)
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		b[off] ^= 0xFF
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		d := reopen(t, dir)
		// The record containing byte off is damaged; every complete
		// record before it must survive.
		wantIdx := tr.prefixAt(off)
		if got := fingerprint(d.DB); got != tr.prints[wantIdx] {
			t.Errorf("flip at byte %d: recovered state is not the %d-mutation prefix", off, wantIdx)
		}
		if d.Recovery().RepairedBytes == 0 {
			t.Errorf("flip at byte %d: corruption reported no repair", off)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestSaveAtomic verifies the DB.Save crash-safety fix: the write goes
// through a fsynced temp file and atomic rename, so the target is
// replaced whole and no temp files are left behind.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lgf")
	if err := os.WriteFile(path, []byte("previous content\n"), 0o644); err != nil {
		t.Fatalf("seed old file: %v", err)
	}
	db := New()
	if err := db.InsertAll(storageGraphs(5, 3)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load after Save: %v", err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("loaded %d graphs, want 3", loaded.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() != "db.lgf" {
			t.Fatalf("leftover file after Save: %s", e.Name())
		}
	}
}

// TestDurableStoreErrorFailsMutation verifies the write-ahead
// discipline end to end: once the log cannot accept appends, inserts
// and deletes fail WITHOUT mutating the database.
func TestDurableStoreErrorFailsMutation(t *testing.T) {
	dir := t.TempDir()
	d := reopen(t, dir)
	gs := storageGraphs(9, 3)
	if err := d.DB.InsertAll(gs[:2]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := d.Close(); err != nil { // log refuses appends from here on
		t.Fatalf("Close: %v", err)
	}
	if _, err := d.DB.Insert(gs[2], ""); err == nil {
		t.Fatal("insert after Close succeeded without persistence")
	}
	if d.DB.Len() != 2 {
		t.Fatalf("failed insert mutated the database: len=%d", d.DB.Len())
	}
	ack, err := d.DB.Delete(gs[0].Name(), "")
	if err == nil {
		t.Fatal("delete after Close reported persistence")
	}
	if !ack.Existed || ack.Gen != 0 {
		t.Fatalf("unpersisted delete acked %+v, want Existed with no new generation", ack)
	}
	if _, ok := d.DB.Get(gs[0].Name()); !ok {
		t.Fatal("failed delete removed the graph anyway")
	}
}

// TestKeyTableSurvivesSnapshot pins the manifest-side key persistence:
// idempotency-key evidence must outlive the WAL segments that carried
// it (a snapshot reclaims them), and the reopened database's key table
// must hold the union of manifest keys and keys found in the remaining
// log suffix.
func TestKeyTableSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	gs := storageGraphs(13, 4)

	d, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, err := d.DB.Insert(gs[0], "ik-snap"); err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	if _, err := d.DB.Insert(gs[1], "ik-snap"); err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	if _, err := d.DB.Insert(gs[2], ""); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if ack, err := d.DB.Delete(gs[2].Name(), "dk-snap"); !ack.Existed || err != nil {
		t.Fatalf("keyed delete: ack=%+v err=%v", ack, err)
	}
	// Snapshot: the keyed records' segments are reclaimed; the keys must
	// now live in the manifest.
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// One more keyed mutation after the snapshot rides in the log only.
	if _, err := d.DB.Insert(gs[3], "ik-log"); err != nil {
		t.Fatalf("keyed insert after snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := reopen(t, dir)
	defer r.Close()
	rk := r.DB.keys
	if got := rk.inserts["ik-snap"]; len(got) != 2 || got[0] != gs[0].Name() || got[1] != gs[1].Name() {
		t.Fatalf("manifest insert key: %v", got)
	}
	if got := rk.inserts["ik-log"]; len(got) != 1 || got[0] != gs[3].Name() {
		t.Fatalf("log insert key: %v", got)
	}
	if got := rk.deletes["dk-snap"]; got != gs[2].Name() {
		t.Fatalf("manifest delete key: %q", got)
	}
	// A second generation: snapshot again (folding the log key into the
	// manifest) and reopen — everything still there, nothing duplicated.
	if err := r.Snapshot(); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2 := reopen(t, dir)
	defer r2.Close()
	rk2 := r2.DB.keys
	if got := rk2.inserts["ik-snap"]; len(got) != 2 {
		t.Fatalf("second-generation insert key duplicated or lost: %v", got)
	}
	if len(rk2.inserts) != 2 || len(rk2.deletes) != 1 {
		t.Fatalf("second-generation key table: %+v", rk2)
	}
}

// TestKeyTableCap pins the FIFO bound: past keyCap keys the oldest is
// forgotten (its retry becomes an honest conflict), the newest kept.
func TestKeyTableCap(t *testing.T) {
	var kt keyTable
	for i := 0; i < keyCap+10; i++ {
		kt.noteInsert(fmt.Sprintf("k%05d", i), fmt.Sprintf("g%05d", i))
		kt.noteDelete(fmt.Sprintf("k%05d", i), fmt.Sprintf("g%05d", i))
	}
	if len(kt.inserts) != keyCap || len(kt.deletes) != keyCap {
		t.Fatalf("table over cap: %d inserts, %d deletes", len(kt.inserts), len(kt.deletes))
	}
	if _, ok := kt.inserts["k00000"]; ok {
		t.Fatal("oldest insert key not evicted")
	}
	if _, ok := kt.inserts[fmt.Sprintf("k%05d", keyCap+9)]; !ok {
		t.Fatal("newest insert key missing")
	}
	if _, ok := kt.deletes["k00000"]; ok {
		t.Fatal("oldest delete key not evicted")
	}
	// Re-noting an existing key's name is a no-op, not a duplicate.
	kt.noteInsert(fmt.Sprintf("k%05d", keyCap+9), fmt.Sprintf("g%05d", keyCap+9))
	if got := kt.inserts[fmt.Sprintf("k%05d", keyCap+9)]; len(got) != 1 {
		t.Fatalf("dedup failed: %v", got)
	}
	ins, del := kt.manifest()
	if len(ins) != keyCap || len(del) != keyCap {
		t.Fatalf("manifest form: %d/%d", len(ins), len(del))
	}
	if ins[0].Key != fmt.Sprintf("k%05d", 10) || ins[len(ins)-1].Key != fmt.Sprintf("k%05d", keyCap+9) {
		t.Fatalf("manifest order: first %s last %s", ins[0].Key, ins[len(ins)-1].Key)
	}
}

// TestKeyedMutationsRaceSnapshots: four writers make keyed inserts (two
// graphs per key) and keyed deletes on a durable store while another
// goroutine cuts snapshots in a loop, each reclaiming the log the
// manifest now covers. The key table lives under the database's lock
// and a snapshot copies it in the same cut as the graphs, so after
// Close and a reopen every key whose mutation returned without error
// is in the table with exactly its names, and no other key is. Under
// -race it is also the detector for a key noted outside that lock.
func TestKeyedMutationsRaceSnapshots(t *testing.T) {
	const writers, rounds = 4, 12
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	gs := storageGraphs(17, writers*rounds*2)

	wantIns := make([]map[string][]string, writers)
	wantDel := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wantIns[w], wantDel[w] = map[string][]string{}, map[string]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				key := fmt.Sprintf("w%d-ins%02d", w, r)
				for _, g := range gs[(w*rounds+r)*2:][:2] {
					if _, err := d.DB.Insert(g, key); err != nil {
						t.Errorf("keyed insert %s: %v", g.Name(), err)
						continue
					}
					wantIns[w][key] = append(wantIns[w][key], g.Name())
				}
				name := gs[(w*rounds+r)*2].Name()
				dkey := fmt.Sprintf("w%d-del%02d", w, r)
				if ack, err := d.DB.Delete(name, dkey); err != nil || !ack.Existed {
					t.Errorf("keyed delete %s: ack %+v err %v", name, ack, err)
					continue
				}
				wantDel[w][dkey] = name
			}
		}()
	}
	stop := make(chan struct{})
	snapped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				snapped <- n
				return
			default:
			}
			if err := d.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-snapped; n == 0 {
		t.Fatal("no snapshot ran beside the writers")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := reopen(t, dir)
	defer r.Close()
	keys := 0
	for w := range writers {
		for key, names := range wantIns[w] {
			if got, _ := r.DB.Keyed(key); !slices.Equal(got, names) {
				t.Errorf("insert key %s: reopened table holds %v, want %v", key, got, names)
			}
		}
		for key, name := range wantDel[w] {
			if _, got := r.DB.Keyed(key); got != name {
				t.Errorf("delete key %s: reopened table holds %q, want %q", key, got, name)
			}
		}
		keys += len(wantIns[w]) + len(wantDel[w])
	}
	if got := len(r.DB.keys.inserts) + len(r.DB.keys.deletes); got != keys {
		t.Errorf("reopened table holds %d keys, want %d", got, keys)
	}
}
