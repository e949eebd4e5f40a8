package gdb

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
)

// TestSnapshotColumnsMatchGraphs: a ranked scan's snapshot carries the
// pivot columns of exactly the graphs it holds. A writer deletes and
// re-inserts one name, alternating two graphs with different
// pivot-distance profiles and waiting for each one's column, while the
// reader snapshots the shard. Wherever a snapshot carries a column for
// that name, the triangle bound of the snapshot's own graph against
// that column is 0 — a namesake's column would lift it above 0. Columns
// are exact (no engine caps), so the bound is exact arithmetic.
func TestSnapshotColumnsMatchGraphs(t *testing.T) {
	sh := NewSharded(1)
	if err := sh.InsertAll(dataset.MoleculeDB(6, 5, 5, 3601)); err != nil {
		t.Fatal(err)
	}
	sh.EnablePivots(pivot.Config{Pivots: 2, MaxNodes: -1, QueryMaxNodes: -1, Workers: 1})
	rng := rand.New(rand.NewSource(3603))
	twins := [2]*graph.Graph{graph.Molecule(4, rng), graph.Molecule(8, rng)}
	for _, g := range twins {
		g.SetName("x")
	}
	if _, err := sh.Insert(twins[0], ""); err != nil {
		t.Fatal(err)
	}
	sh.WaitPivots()
	db := sh.Shard(0)

	// The fixture must tell the twins apart: the second twin bounded
	// with the first one's column is at a positive distance.
	sn := db.snapshot(true)
	if lo, _, ok := sn.cols.Query(twins[1], measure.NewSignature(twins[1])).GED("x"); !ok || lo == 0 {
		t.Fatalf("fixture: twins share a pivot profile (lo %v, column %v)", lo, ok)
	}

	var done atomic.Bool
	writerErr := make(chan error, 1)
	go func() {
		defer done.Store(true)
		for i := 1; i <= 200; i++ {
			if _, err := sh.Delete("x", ""); err != nil {
				writerErr <- err
				return
			}
			if _, err := sh.Insert(twins[i%2], ""); err != nil {
				writerErr <- err
				return
			}
			// Let the new graph's column land, so the next swap races
			// readers against a published column.
			sh.WaitPivots()
		}
		writerErr <- nil
	}()
	checked := 0
	for !done.Load() {
		sn := db.snapshot(true)
		for i, g := range sn.graphs {
			if g.Name() != "x" {
				continue
			}
			lo, _, ok := sn.cols.Query(g, sn.sigs[i]).GED("x")
			if !ok {
				continue // column not published yet: the scan keeps the signature bound
			}
			checked++
			if lo != 0 {
				t.Fatalf("snapshot bounds its own %d-vertex x at %v from itself: the column belongs to a namesake", g.Order(), lo)
			}
		}
	}
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	sh.WaitPivots()
	if checked == 0 {
		t.Log("no snapshot caught a published column for x this run")
	}
}
