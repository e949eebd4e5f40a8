package gdb

import (
	"context"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

func requireSameItems(t *testing.T, label string, want, got []topk.Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: item counts differ: want %v, got %v", label, want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: item %d differs: want %+v, got %+v (want %v got %v)", label, i, want[i], got[i], want, got)
		}
	}
}

// TestRankedCanceled checks the pruned path honors context
// cancellation.
func TestRankedCanceled(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKQuery(ctx, dataset.PaperQuery(), measure.DistEd{}, 2, QueryOptions{Prune: true}); err == nil {
		t.Error("canceled pruned top-k succeeded")
	}
	if _, err := db.RangeQuery(ctx, dataset.PaperQuery(), measure.DistEd{}, 2, QueryOptions{Prune: true}); err == nil {
		t.Error("canceled pruned range succeeded")
	}
}
