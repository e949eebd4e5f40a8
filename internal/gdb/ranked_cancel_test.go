package gdb

import (
	"context"
	"errors"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
)

// flipCtx is a context that turns done right after its first poll, as
// if its deadline passed then: the first Err reports nil and closes
// Done, every later one reports context.Canceled.
type flipCtx struct {
	context.Context
	polls int
	done  chan struct{}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.polls++; c.polls == 1 {
		close(c.done)
		return nil
	}
	return context.Canceled
}

// TestRankedTierZeroStopsOnCancel: tier 0 polls the query's context as
// it bounds, so a query cancelled early in it returns context.Canceled
// without bounding every class. DistGu reads more than the label
// histograms, so every candidate is a class of its own, and a poll
// every pollClasses classes comes round several times on the store.
func TestRankedTierZeroStopsOnCancel(t *testing.T) {
	const n = 4 * pollClasses
	db := New()
	if err := db.InsertAll(dataset.MoleculeDB(n, 5, 7, 4701)); err != nil {
		t.Fatal(err)
	}
	q := dataset.MoleculeDB(1, 6, 6, 4702)[0]
	trace := NewQueryTrace()
	ctx := &flipCtx{Context: context.Background(), done: make(chan struct{})}
	_, err := db.TopKQuery(ctx, q, measure.DistGu, 5, QueryOptions{Trace: trace})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	for _, s := range trace.Stages() {
		if s.Stage == StageBound.String() && s.Pairs >= n {
			t.Fatalf("tier 0 bounded all %d candidates after the cancel", s.Pairs)
		}
	}
}

// TestSkylineTierZeroStopsOnCancel is TestRankedTierZeroStopsOnCancel's
// skyline twin: the pruned skyline scan's tier 0 polls the query's
// context once every pollClasses candidates, so a query cancelled early
// in it returns context.Canceled without bounding every graph.
func TestSkylineTierZeroStopsOnCancel(t *testing.T) {
	const n = 4 * pollClasses
	db := New()
	if err := db.InsertAll(dataset.MoleculeDB(n, 5, 7, 4701)); err != nil {
		t.Fatal(err)
	}
	q := dataset.MoleculeDB(1, 6, 6, 4702)[0]
	trace := NewQueryTrace()
	ctx := &flipCtx{Context: context.Background(), done: make(chan struct{})}
	_, err := db.SkylineQuery(ctx, q, QueryOptions{Prune: true, Trace: trace})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	for _, s := range trace.Stages() {
		if s.Stage == StageBound.String() && s.Pairs >= n {
			t.Fatalf("tier 0 bounded all %d candidates after the cancel", s.Pairs)
		}
	}
}
