package gdb

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

func TestGenerationBumpsOnMutation(t *testing.T) {
	db := paperDB(t)
	g0 := db.Generation()
	if g0 == 0 {
		t.Fatal("generation should be nonzero after inserts")
	}
	if db.Generation() != g0 {
		t.Fatal("generation changed without a mutation")
	}
	if ack, err := db.Delete(db.Names()[0], ""); !ack.Existed || err != nil {
		t.Fatalf("delete failed: ack %+v, err %v", ack, err)
	}
	if db.Generation() == g0 {
		t.Fatal("delete did not bump the generation")
	}
	// A failed mutation must not bump.
	g1 := db.Generation()
	if _, err := db.Insert(dataset.PaperDB()[1], ""); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if db.Generation() != g1 {
		t.Fatal("failed insert bumped the generation")
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	db := paperDB(t)
	var buf bytes.Buffer
	n, err := db.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes; wrote %d", n, buf.Len())
	}
	if n == 0 {
		t.Fatal("WriteTo wrote nothing for a non-empty database")
	}
}

// TestSaveLoadQueryDeterminism pins the full persistence round trip: a
// database saved to LGF and reloaded must answer skyline, top-k and
// range queries identically (same members, same vectors).
func TestSaveLoadQueryDeterminism(t *testing.T) {
	db := paperDB(t)
	path := filepath.Join(t.TempDir(), "db.lgf")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Names(), reloaded.Names()) {
		t.Fatalf("names drifted: %v vs %v", db.Names(), reloaded.Names())
	}
	q := dataset.PaperQuery()

	r1, err := db.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reloaded.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(r1.Skyline, r2.Skyline) || !samePoints(r1.All, r2.All) {
		t.Fatalf("skyline drifted across save/load:\n before %v\n  after %v", r1.Skyline, r2.Skyline)
	}

	k1, err := db.TopKQuery(context.Background(), q, measure.DistEd, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := reloaded.TopKQuery(context.Background(), q, measure.DistEd, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k1.Items, k2.Items) {
		t.Fatalf("topk drifted: %v vs %v", k1.Items, k2.Items)
	}

	g1, err := db.RangeQuery(context.Background(), q, measure.DistGu, 0.9, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := reloaded.RangeQuery(context.Background(), q, measure.DistGu, 0.9, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Items, g2.Items) {
		t.Fatalf("range drifted: %v vs %v", g1.Items, g2.Items)
	}
}

func samePoints(a, b []skyline.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !reflect.DeepEqual(a[i].Vec, b[i].Vec) {
			return false
		}
	}
	return true
}

// tableColumn returns the table rows' scores under basis measure m.
func tableColumn(t *testing.T, tab *VectorTable, m measure.Measure) []topk.Item {
	t.Helper()
	for col, b := range tab.Basis {
		if b.Name() == m.Name() {
			items := make([]topk.Item, len(tab.Points))
			for i, p := range tab.Points {
				items[i] = topk.Item{ID: p.ID, Score: p.Vec[col]}
			}
			return items
		}
	}
	t.Fatalf("measure %s not in table basis", m.Name())
	return nil
}

// TestVectorTableMatchesDirectQueries checks the cache-aware entry point
// against the direct skyline query, and the ranked scan's answers
// against the complete table's columns: its included scores are the
// columns' scores byte for byte.
func TestVectorTableMatchesDirectQueries(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	tab, err := db.VectorTable(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Generation != db.Generation() {
		t.Fatalf("table generation %d; db %d", tab.Generation, db.Generation())
	}
	if len(tab.Points) != 7 {
		t.Fatalf("table has %d rows; want 7", len(tab.Points))
	}

	direct, err := db.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(tab.Skyline(), direct.Skyline) {
		t.Fatalf("table skyline differs from direct query")
	}

	items := topk.Select(tableColumn(t, tab, measure.DistEd), 3)
	directK, err := db.TopKQuery(context.Background(), q, measure.DistEd, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, directK.Items) {
		t.Fatalf("table topk %v differs from direct %v", items, directK.Items)
	}

	var rItems []topk.Item
	for _, it := range tableColumn(t, tab, measure.DistMcs) {
		if it.Score <= 0.8 {
			rItems = append(rItems, it)
		}
	}
	directR, err := db.RangeQuery(context.Background(), q, measure.DistMcs, 0.8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rItems, directR.Items) {
		t.Fatalf("table range %v differs from direct %v", rItems, directR.Items)
	}

	// Range with an infinite radius returns every graph.
	all, err := db.RangeQuery(context.Background(), q, measure.DistEd, math.Inf(1), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Items) != 7 {
		t.Fatalf("infinite-radius range returned %d; want 7", len(all.Items))
	}
}

func TestVectorTableHonorsCancellation(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.VectorTable(ctx, dataset.PaperQuery(), QueryOptions{}); err == nil {
		t.Fatal("canceled context should abort the evaluation")
	}
}

func TestVectorTableDeadline(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := db.VectorTable(ctx, dataset.PaperQuery(), QueryOptions{}); err == nil {
		t.Fatal("expired deadline should abort the evaluation")
	}
}
