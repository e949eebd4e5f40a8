package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// newShardedTestServerWith serves an arbitrary graph set split across
// nshards shards.
func newShardedTestServerWith(t *testing.T, nshards int, cfg Config, gs []*graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	db := gdb.NewSharded(nshards)
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
// requests only — with the same skyline, across shard counts, including
// the harness's seeded databases.
func TestSkylinePrunesByDefaultAndMatchesFull(t *testing.T) {
	gs := append(dataset.PaperDB(), testutil.SeededGraphs(5, 17)...)
	for _, shards := range []int{1, 2, 3, 7} {
		_, ts := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
		for qi, q := range append(testutil.SeededQueries(77, gs, 2), dataset.PaperQuery()) {
			label := fmt.Sprintf("shards=%d q=%d", shards, qi)
			want := testutil.ReferenceSkyline(gs, q, measure.Options{})
			var full SkylineResponse
			if r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &full); r.StatusCode != http.StatusOK {
				t.Fatalf("%s: all status %d", label, r.StatusCode)
			}
			testutil.RequireSameSkyline(t, label+"/all", want, wirePoints(full.Skyline))
			testutil.RequireSameSkyline(t, label+"/table", testutil.ReferenceTable(gs, q, measure.Options{}), wirePoints(full.All))
			var pruned SkylineResponse
			if r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &pruned); r.StatusCode != http.StatusOK {
				t.Fatalf("%s: pruned status %d", label, r.StatusCode)
			}
			if pruned.Stats.CacheHit || pruned.Stats.Evaluated+pruned.Stats.Pruned != len(gs) {
				t.Fatalf("%s: default query did not run its own pruned build: %+v", label, pruned.Stats)
			}
			requireSameSkylineJSON(t, shards, qi, full.Skyline, pruned.Skyline)
		}
	}
}

// TestSkylinePrunedColdPathMatchesFull: cold pruned builds (no warm
// full table) must produce the reference skyline and account for every
// graph.
func TestSkylinePrunedColdPathMatchesFull(t *testing.T) {
	gs := testutil.SeededGraphs(9, 20)
	q := testutil.SeededQueries(99, gs, 1)[0]
	want := testutil.ReferenceSkyline(gs, q, measure.Options{})
	for _, shards := range []int{1, 3} {
		_, ts := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, gs)
		var pruned SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &pruned)
		if pruned.Stats.Evaluated+pruned.Stats.Pruned != len(gs) {
			t.Fatalf("shards=%d: evaluated %d + pruned %d != %d graphs",
				shards, pruned.Stats.Evaluated, pruned.Stats.Pruned, len(gs))
		}
		testutil.RequireSameSkyline(t, fmt.Sprintf("shards=%d", shards), want, wirePoints(pruned.Skyline))

		// A later ranking query on the pruned-only server still answers
		// (through its own ranked scan).
		var tk TopKResponse
		r := postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3, Measure: "DistEd"}, &tk)
		if r.StatusCode != http.StatusOK || len(tk.Items) != 3 {
			t.Fatalf("shards=%d: topk after pruned skyline: status %d items %d", shards, r.StatusCode, len(tk.Items))
		}
	}
}

// requireSameSkylineJSON compares wire skylines member-by-member (both
// engines answer in global insertion order, so order is part of the
// contract).
func requireSameSkylineJSON(t *testing.T, shards, qi int, want, got []PointJSON) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("shards=%d q=%d: skyline sizes differ: want %d, got %d", shards, qi, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("shards=%d q=%d: member %d: want %s, got %s", shards, qi, i, want[i].ID, got[i].ID)
		}
		if len(want[i].Vec) != len(got[i].Vec) {
			t.Fatalf("shards=%d q=%d: %s: vector dims differ", shards, qi, want[i].ID)
		}
		for d := range want[i].Vec {
			if want[i].Vec[d] != got[i].Vec[d] {
				t.Fatalf("shards=%d q=%d: %s dim %d: want %v, got %v",
					shards, qi, want[i].ID, d, want[i].Vec[d], got[i].Vec[d])
			}
		}
	}
}
