package gdb

import (
	"errors"
	"syscall"
	"testing"

	"skygraph/internal/fault"
)

// TestFaultedMutationLeavesDBUnchanged is the satellite-c table: every
// storage failpoint, in every failure shape it supports, armed while a
// mutation runs. The invariants asserted per case:
//
//  1. the mutation fails with ErrNotPersisted wrapping the injected
//     error (the caller can classify it);
//  2. the in-memory database is byte-identical to before the attempt;
//  3. after the fault clears, mutations succeed on the same handle; and
//  4. a restart recovers exactly the acknowledged mutations — failed
//     ones left no partial trace on disk.
func TestFaultedMutationLeavesDBUnchanged(t *testing.T) {
	type mutation int
	const (
		doInsert mutation = iota
		doDelete
	)
	cases := []struct {
		name  string
		point string
		cfg   fault.Config
		mut   mutation
	}{
		{"store-insert-eio", fault.StoreInsert, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1}, doInsert},
		{"store-delete-eio", fault.StoreDelete, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1}, doDelete},
		{"append-eio", fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1}, doInsert},
		{"append-enospc", fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.ENOSPC, Limit: 1}, doInsert},
		{"append-short", fault.WALAppend, fault.Config{Mode: fault.ModeShortWrite, ShortBytes: 6, Limit: 1}, doInsert},
		{"append-short-delete", fault.WALAppend, fault.Config{Mode: fault.ModeShortWrite, ShortBytes: 6, Limit: 1}, doDelete},
		{"fsync-eio", fault.WALFsync, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1}, doInsert},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			d := reopen(t, dir)
			graphs := storageGraphs(400, 6)
			for _, g := range graphs[:4] {
				if _, err := d.DB.Insert(g, ""); err != nil {
					t.Fatalf("seed insert: %v", err)
				}
			}
			before := fingerprint(d.DB)

			fault.Set(tc.point, tc.cfg)
			var err error
			switch tc.mut {
			case doInsert:
				_, err = d.DB.Insert(graphs[4], "")
			case doDelete:
				_, err = d.DB.Delete(graphs[0].Name(), "")
			}
			if err == nil {
				t.Fatal("mutation under fault succeeded")
			}
			if !errors.Is(err, ErrNotPersisted) {
				t.Fatalf("error %v does not wrap ErrNotPersisted", err)
			}
			if tc.cfg.Err != nil && !errors.Is(err, tc.cfg.Err) {
				t.Fatalf("error %v does not wrap injected %v", err, tc.cfg.Err)
			}
			if got := fingerprint(d.DB); got != before {
				t.Fatal("failed mutation changed the database")
			}

			// Limit=1: the fault has cleared; the same handle keeps working.
			if _, err := d.DB.Insert(graphs[5], ""); err != nil {
				t.Fatalf("insert after fault cleared: %v", err)
			}
			want := fingerprint(d.DB)
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			d2 := reopen(t, dir)
			defer d2.Close()
			if got := fingerprint(d2.DB); got != want {
				t.Fatalf("recovered state differs from acked state:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestFaultPersistsAcrossManyFailedMutations holds a fault over a run
// of mutations — the degraded-mode steady state — and checks the WAL
// never accumulates partial frames that would poison recovery.
func TestFaultPersistsAcrossManyFailedMutations(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	d := reopen(t, dir)
	graphs := storageGraphs(401, 12)
	for _, g := range graphs[:3] {
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	before := fingerprint(d.DB)
	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeShortWrite, ShortBytes: 4})
	for _, g := range graphs[3:9] {
		if _, err := d.DB.Insert(g, ""); err == nil {
			t.Fatalf("insert %s under persistent fault succeeded", g.Name())
		}
	}
	if got := fingerprint(d.DB); got != before {
		t.Fatal("failed mutations changed the database")
	}
	fault.Reset()
	for _, g := range graphs[9:] {
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Fatalf("insert after heal: %v", err)
		}
	}
	want := fingerprint(d.DB)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := reopen(t, dir)
	defer d2.Close()
	if got := fingerprint(d2.DB); got != want {
		t.Fatalf("recovered state differs from acked state:\n got %q\nwant %q", got, want)
	}
}

// TestProbe pins the health probe: it fails while the disk is broken,
// succeeds once healed, and its no-op records are invisible to
// recovery.
func TestProbe(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	d := reopen(t, dir)
	graphs := storageGraphs(402, 2)
	for _, g := range graphs {
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1})
	if err := d.Probe(); err == nil {
		t.Fatal("probe succeeded on a broken disk")
	}
	if err := d.Probe(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	want := fingerprint(d.DB)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := reopen(t, dir)
	defer d2.Close()
	if got := fingerprint(d2.DB); got != want {
		t.Fatalf("probe records leaked into recovered state:\n got %q\nwant %q", got, want)
	}
	if d2.Recovery().ReplayedRecords != 3 { // 2 inserts + 1 noop replayed (skipped)
		t.Fatalf("replayed %d records, want 3", d2.Recovery().ReplayedRecords)
	}
}

// TestSnapshotFaultsDoNotLoseState pins that a faulted snapshot or
// manifest replace fails the Snapshot call but never the data: the WAL
// still holds everything, and recovery serves the full acked state.
func TestSnapshotFaultsDoNotLoseState(t *testing.T) {
	for _, point := range []string{fault.SnapshotWrite, fault.ManifestReplace} {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			d := reopen(t, dir)
			for _, g := range storageGraphs(403, 5) {
				if _, err := d.DB.Insert(g, ""); err != nil {
					t.Fatal(err)
				}
			}
			fault.Set(point, fault.Config{Mode: fault.ModeError, Err: syscall.ENOSPC, Limit: 1})
			if err := d.Snapshot(); err == nil {
				t.Fatal("faulted snapshot succeeded")
			}
			// Healed: the next snapshot succeeds and recovery uses it.
			if err := d.Snapshot(); err != nil {
				t.Fatalf("snapshot after heal: %v", err)
			}
			want := fingerprint(d.DB)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2 := reopen(t, dir)
			defer d2.Close()
			if got := fingerprint(d2.DB); got != want {
				t.Fatalf("recovered state differs:\n got %q\nwant %q", got, want)
			}
			if d2.Recovery().SnapshotGraphs != 5 {
				t.Fatalf("recovered %d graphs from snapshot, want 5", d2.Recovery().SnapshotGraphs)
			}
		})
	}
}

// TestInsertSeqHighWater pins the monotone high-water accessor the
// idempotency checks rely on.
func TestInsertSeqHighWater(t *testing.T) {
	before := InsertSeqHighWater()
	db := New()
	for _, g := range storageGraphs(404, 3) {
		if _, err := db.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := InsertSeqHighWater(); got != before+3 {
		t.Fatalf("high-water %d, want %d", got, before+3)
	}
}
