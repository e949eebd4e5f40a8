package gdb

import (
	"context"
	"errors"
	"testing"

	"skygraph/internal/graph"
)

// TestPairwiseMatrixStopsOnCancel: the diversity matrix build claims no
// pair once its context is done and reports the context's error. The
// members are nil graphs, so computing any pair would panic.
func TestPairwiseMatrixStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mat, err := pairwiseMatrix(ctx, make([]*graph.Graph, 5))
	if !errors.Is(err, context.Canceled) || mat != nil {
		t.Fatalf("cancelled build: matrix %v, err %v; want nil, context.Canceled", mat, err)
	}
}
