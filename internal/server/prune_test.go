package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/testutil"
)

// newTestServerWith serves an arbitrary graph set.
func newTestServerWith(t *testing.T, cfg Config, gs []*graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	db := gdb.New()
	if err := db.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestSkylinePrunesByDefaultAndMatchesFull: an "all" skyline request
// returns the reference table and skyline, and a default request after
// it runs its own pruned build — the complete tables answer "all"
// requests only — with the same skyline, on the paper database and the
// harness's seeded graphs.
func TestSkylinePrunesByDefaultAndMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
	for qi, q := range append(testutil.SeededQueries(77, gs, 2), dataset.PaperQuery()) {
		label := fmt.Sprintf("q=%d", qi)
		want := testutil.ReferenceSkyline(gs, q)
		var full SkylineResponse
		if r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &full); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: all status %d", label, r.StatusCode)
		}
		testutil.RequireSameSkyline(t, label+"/all", want, wirePoints(full.Skyline))
		testutil.RequireSameSkyline(t, label+"/table", testutil.ReferenceTable(gs, q), wirePoints(full.All))
		var pruned SkylineResponse
		if r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &pruned); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: pruned status %d", label, r.StatusCode)
		}
		if pruned.Stats.CacheHit || pruned.Stats.Evaluated+pruned.Stats.Pruned != len(gs) {
			t.Fatalf("%s: default query did not run its own pruned build: %+v", label, pruned.Stats)
		}
		requireSameSkylineJSON(t, label, full.Skyline, pruned.Skyline)
	}
}

// TestSkylinePrunedColdPathMatchesFull: cold pruned builds (no warm
// full table) must produce the reference skyline and account for every
// graph.
func TestSkylinePrunedColdPathMatchesFull(t *testing.T) {
	gs := testutil.SeededGraphs(9, 20)
	q := testutil.SeededQueries(99, gs, 1)[0]
	want := testutil.ReferenceSkyline(gs, q)
	_, ts := newTestServerWith(t, Config{CacheSize: 64}, gs)
	var pruned SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &pruned)
	if pruned.Stats.Evaluated+pruned.Stats.Pruned != len(gs) {
		t.Fatalf("evaluated %d + pruned %d != %d graphs",
			pruned.Stats.Evaluated, pruned.Stats.Pruned, len(gs))
	}
	testutil.RequireSameSkyline(t, "pruned", want, wirePoints(pruned.Skyline))

	// A later ranking query on the pruned-only server still answers
	// (through its own ranked scan).
	var tk TopKResponse
	r := postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3, Measure: "DistEd"}, &tk)
	if r.StatusCode != http.StatusOK || len(tk.Items) != 3 {
		t.Fatalf("topk after pruned skyline: status %d items %d", r.StatusCode, len(tk.Items))
	}
}

// requireSameSkylineJSON compares wire skylines member-by-member (both
// engines answer in insertion order, so order is part of the
// contract).
func requireSameSkylineJSON(t *testing.T, label string, want, got []PointJSON) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: skyline sizes differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: member %d: want %s, got %s", label, i, want[i].ID, got[i].ID)
		}
		if len(want[i].Vec) != len(got[i].Vec) {
			t.Fatalf("%s: %s: vector dims differ", label, want[i].ID)
		}
		for d := range want[i].Vec {
			if want[i].Vec[d] != got[i].Vec[d] {
				t.Fatalf("%s: %s dim %d: want %v, got %v",
					label, want[i].ID, d, want[i].Vec[d], got[i].Vec[d])
			}
		}
	}
}
