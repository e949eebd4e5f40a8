package gdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// TestSnapshotColumnsMatchGraphs: a scan's snapshot pairs every graph
// with its own signature, insertion sequence and histogram class. A writer deletes and
// re-inserts one name, alternating two graphs of different orders and
// sizes, while the reader snapshots the database. Wherever a snapshot
// holds that name, the signature beside it describes the graph it holds
// (a namesake's signature has another order and size), and sequences
// strictly increase along the snapshot, as insertion order fixes them.
// A snapshot held across the writer's whole run keeps every column
// element it was handed, and a column a reader appends to never shares
// its new element with the store. Every snapshot's class column is
// dense and true to the histograms (requireClassColumn), across the
// writer's deletes and re-inserts, which alternate the name between two
// classes, and after an OpenDurable recovery, which re-interns the ids.
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
	heldCls := slices.Clone(held.cls)

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
		requireClassColumn(t, "under the writer", sn)
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
	if !slices.Equal(held.graphs, heldGraphs) || !slices.Equal(held.sigs, heldSigs) || !slices.Equal(held.seqs, heldSeqs) ||
		!slices.Equal(held.cls, heldCls) {
		t.Fatal("a snapshot held across the writer's run changed under it")
	}
	requireClassColumn(t, "held", held)

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
	if !slices.Equal(next.graphs[:n], sn.graphs) || !slices.Equal(next.sigs[:n], sn.sigs) || !slices.Equal(next.seqs[:n], sn.seqs) ||
		!slices.Equal(next.cls[:n], sn.cls) {
		t.Fatal("an insert changed the columns below the length it was handed")
	}

	// Recovery replays inserts and deletes into a fresh store, which
	// interns its own ids.
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range next.graphs {
		if _, err := d.DB.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range next.graphs[:len(next.graphs)/2] {
		if _, err := d.DB.Delete(g.Name(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.DB.Insert(next.graphs[0], ""); err != nil {
		t.Fatal(err)
	}
	want := d.DB.snapshot()
	requireClassColumn(t, "durable", want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := d.DB.snapshot()
	if !slices.EqualFunc(got.graphs, want.graphs, func(a, b *graph.Graph) bool { return a.Name() == b.Name() }) {
		t.Fatal("recovery changed the stored graphs")
	}
	requireClassColumn(t, "recovered", got)
}

// requireClassColumn checks sn's class column: one id per graph, every
// id below the snapshot's class count and each of those held by some
// graph (the ids are dense), and two graphs share an id exactly when
// they share their vertex- and edge-label histograms.
func requireClassColumn(t *testing.T, label string, sn snap) {
	t.Helper()
	if len(sn.cls) != len(sn.graphs) {
		t.Fatalf("%s: %d class ids for %d graphs", label, len(sn.cls), len(sn.graphs))
	}
	keys := make([]string, sn.classes)
	for i, c := range sn.cls {
		if c < 0 || int(c) >= sn.classes {
			t.Fatalf("%s: graph %d has class %d of %d", label, i, c, sn.classes)
		}
		key := sn.sigs[i].HistogramClass()
		if keys[c] == "" {
			keys[c] = key
		} else if keys[c] != key {
			t.Fatalf("%s: class %d holds graphs of two histogram classes", label, c)
		}
	}
	seen := map[string]bool{}
	for c, key := range keys {
		if key == "" {
			t.Fatalf("%s: class %d of %d holds no graph", label, c, sn.classes)
		}
		if seen[key] {
			t.Fatalf("%s: one histogram class has two ids", label)
		}
		seen[key] = true
	}
}

// TestConcurrentInsertsAscendInSequence: four writers insert 1000
// graphs each at once, and the store's columns still hold them in
// strictly ascending insert sequence. A sequence minted outside the
// store lock lets a writer that drew the smaller one append second.
func TestConcurrentInsertsAscendInSequence(t *testing.T) {
	const writers, each = 4, 1000
	rng := rand.New(rand.NewSource(3607))
	base := graph.Molecule(5, rng)
	gs := make([][]*graph.Graph, writers)
	for w := range gs {
		gs[w] = make([]*graph.Graph, each)
		for i := range gs[w] {
			g := base.Clone()
			g.SetName(fmt.Sprintf("w%d-%04d", w, i))
			gs[w][i] = g
		}
	}
	sh := New()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range gs[w] {
				if _, err := sh.Insert(g, ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sn := sh.snapshot()
	if len(sn.seqs) != writers*each {
		t.Fatalf("store holds %d graphs; want %d", len(sn.seqs), writers*each)
	}
	for i := 1; i < len(sn.seqs); i++ {
		if sn.seqs[i] <= sn.seqs[i-1] {
			t.Fatalf("row %d: sequence %d follows %d", i, sn.seqs[i], sn.seqs[i-1])
		}
	}
}
