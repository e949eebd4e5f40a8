package gdb

import (
	"path/filepath"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

func paperDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertGetDelete(t *testing.T) {
	db := New()
	g := graph.Path(3, "A", "x")
	g.SetName("p3")
	if ack, err := db.Insert(g, ""); err != nil || ack.Existed || ack.Gen != 1 {
		t.Fatalf("insert: ack %+v, err %v", ack, err)
	}
	if db.Len() != 1 {
		t.Errorf("len=%d", db.Len())
	}
	got, ok := db.Get("p3")
	if !ok || !got.Equal(g) {
		t.Error("Get failed")
	}
	if _, ok := db.Get("nope"); ok {
		t.Error("Get of missing graph succeeded")
	}
	if ack, err := db.Delete("p3", ""); err != nil || !ack.Existed || ack.Gen != 2 {
		t.Errorf("Delete failed: ack %+v, err %v", ack, err)
	}
	if ack, err := db.Delete("p3", ""); err != nil || ack.Existed || ack.Gen != 0 {
		t.Errorf("double delete succeeded: ack %+v, err %v", ack, err)
	}
	if db.Len() != 0 {
		t.Errorf("len=%d after delete", db.Len())
	}
}

func TestInsertErrors(t *testing.T) {
	db := New()
	if _, err := db.Insert(nil, ""); err == nil {
		t.Error("nil graph accepted")
	}
	if err := db.InsertAll([]*graph.Graph{nil}); err == nil {
		t.Error("InsertAll accepted a nil graph")
	}
	unnamed := graph.New("")
	if _, err := db.Insert(unnamed, ""); err == nil {
		t.Error("unnamed graph accepted")
	}
	g := graph.Path(2, "A", "x")
	g.SetName("g")
	if _, err := db.Insert(g, ""); err != nil {
		t.Fatal(err)
	}
	dup := graph.Path(4, "B", "y")
	dup.SetName("g")
	if ack, err := db.Insert(dup, ""); err == nil || !ack.Existed {
		t.Errorf("duplicate name accepted: ack %+v, err %v", ack, err)
	}
	if db.Len() != 1 || db.Generation() != 1 {
		t.Errorf("rejected inserts changed the database: len %d, generation %d", db.Len(), db.Generation())
	}
}

func TestNamesInsertionOrder(t *testing.T) {
	db := paperDB(t)
	names := db.Names()
	want := []string{"g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names=%v", names)
		}
	}
	gs := db.Graphs()
	for i, g := range gs {
		if g.Name() != want[i] {
			t.Fatalf("graphs order wrong at %d", i)
		}
	}
}

func TestStats(t *testing.T) {
	db := paperDB(t)
	s := db.Stats()
	if s.Graphs != 7 {
		t.Errorf("graphs=%d", s.Graphs)
	}
	if s.MinSize != 6 || s.MaxSize != 10 {
		t.Errorf("size range [%d,%d], want [6,10]", s.MinSize, s.MaxSize)
	}
	wantEdges := 0
	for _, n := range dataset.PaperSizes {
		wantEdges += n
	}
	if s.Edges != wantEdges {
		t.Errorf("edges=%d, want %d", s.Edges, wantEdges)
	}
	if s.EdgeLabels != 2 { // "s" and "t"
		t.Errorf("edge labels=%d", s.EdgeLabels)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := paperDB(t)
	path := filepath.Join(t.TempDir(), "db.lgf")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("len=%d, want %d", loaded.Len(), db.Len())
	}
	for _, name := range db.Names() {
		a, _ := db.Get(name)
		b, ok := loaded.Get(name)
		if !ok || !a.Equal(b) {
			t.Errorf("graph %s not preserved", name)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.lgf")); err == nil {
		t.Error("no error for missing file")
	}
}
