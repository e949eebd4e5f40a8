package gdb

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// TestSnapshotColumnsMatchGraphs: a scan's snapshot pairs every graph
// with its own signature and insertion sequence. A writer deletes and
// re-inserts one name, alternating two graphs of different orders and
// sizes, while the reader snapshots the shard. Wherever a snapshot
// holds that name, the signature beside it describes the graph it holds
// (a namesake's signature has another order and size), and sequences
// strictly increase along the snapshot, as insertion order fixes them.
func TestSnapshotColumnsMatchGraphs(t *testing.T) {
	sh := NewSharded(1)
	if err := sh.InsertAll(dataset.MoleculeDB(6, 5, 5, 3601)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3603))
	twins := [2]*graph.Graph{graph.Molecule(4, rng), graph.Molecule(8, rng)}
	for _, g := range twins {
		g.SetName("x")
	}
	if twins[0].Order() == twins[1].Order() || twins[0].Size() == twins[1].Size() {
		t.Fatalf("fixture: twins share an order or a size (%d/%d, %d/%d)",
			twins[0].Order(), twins[1].Order(), twins[0].Size(), twins[1].Size())
	}
	if _, err := sh.Insert(twins[0], ""); err != nil {
		t.Fatal(err)
	}
	db := sh.Shard(0)

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
		}
		writerErr <- nil
	}()
	checked := 0
	for !done.Load() {
		sn := db.snapshot()
		if len(sn.sigs) != len(sn.graphs) || len(sn.seqs) != len(sn.graphs) {
			t.Fatalf("snapshot columns: %d graphs, %d signatures, %d sequences", len(sn.graphs), len(sn.sigs), len(sn.seqs))
		}
		for i, g := range sn.graphs {
			if i > 0 && sn.seqs[i] <= sn.seqs[i-1] {
				t.Fatalf("snapshot sequences out of order at %d: %d after %d", i, sn.seqs[i], sn.seqs[i-1])
			}
			if g.Name() != "x" {
				continue
			}
			checked++
			if sig := sn.sigs[i]; sig.Order != g.Order() || sig.Size != g.Size() {
				t.Fatalf("snapshot pairs its %d-vertex, %d-edge x with the signature of a %d-vertex, %d-edge namesake",
					g.Order(), g.Size(), sig.Order, sig.Size)
			}
		}
	}
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Log("no snapshot caught x this run")
	}
}
