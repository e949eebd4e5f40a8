package gdb

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// TestSnapshotColumnsMatchGraphs: a scan's snapshot pairs every graph
// with its own signature and insertion sequence. A writer deletes and
// re-inserts one name, alternating two graphs of different orders and
// sizes, while the reader snapshots the database. Wherever a snapshot
// holds that name, the signature beside it describes the graph it holds
// (a namesake's signature has another order and size), and sequences
// strictly increase along the snapshot, as insertion order fixes them.
// A snapshot held across the writer's whole run keeps every column
// element it was handed, and a column a reader appends to never shares
// its new element with the store.
func TestSnapshotColumnsMatchGraphs(t *testing.T) {
	sh := New()
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

	held := sh.snapshot()
	heldGraphs, heldSigs, heldSeqs := slices.Clone(held.graphs), slices.Clone(held.sigs), slices.Clone(held.seqs)

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
		sn := sh.snapshot()
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
	if !slices.Equal(held.graphs, heldGraphs) || !slices.Equal(held.sigs, heldSigs) || !slices.Equal(held.seqs, heldSeqs) {
		t.Fatal("a snapshot held across the writer's run changed under it")
	}

	// A reader appending to its columns must not write where the store
	// appends next, nor see the store's next append in its own slice.
	sn := sh.snapshot()
	n := len(sn.graphs)
	extra := graph.Molecule(5, rng)
	extra.SetName("extra")
	mineGraphs := append(sn.graphs, twins[0])
	mineSigs := append(sn.sigs, nil)
	mineSeqs := append(sn.seqs, 0)
	if _, err := sh.Insert(extra, ""); err != nil {
		t.Fatal(err)
	}
	next := sh.snapshot()
	if mineGraphs[n] != twins[0] || mineSigs[n] != nil || mineSeqs[n] != 0 {
		t.Fatal("the store's insert landed in a reader's appended column element")
	}
	if len(next.graphs) != n+1 || next.graphs[n] != extra || next.sigs[n] == nil || next.seqs[n] == 0 {
		t.Fatal("a reader's append reached the store's next snapshot")
	}
	if !slices.Equal(next.graphs[:n], sn.graphs) || !slices.Equal(next.sigs[:n], sn.sigs) || !slices.Equal(next.seqs[:n], sn.seqs) {
		t.Fatal("an insert changed the columns below the length it was handed")
	}
}
