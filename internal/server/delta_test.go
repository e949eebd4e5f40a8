package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
	"skygraph/internal/skyline"
	"skygraph/internal/testutil"
	"skygraph/internal/topk"
	"skygraph/internal/vector"
)

func deleteGraph(t *testing.T, url string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", url, resp.StatusCode)
	}
}

func wirePoints(ps []PointJSON) []skyline.Point {
	out := make([]skyline.Point, len(ps))
	for i, p := range ps {
		out[i] = skyline.Point{ID: p.ID, Vec: p.Vec}
	}
	return out
}

func wireItems(is []ItemJSON) []topk.Item {
	out := make([]topk.Item, len(is))
	for i, it := range is {
		out[i] = topk.Item{ID: it.ID, Score: it.Score}
	}
	return out
}

// TestDeltaMatchesColdRecompute is the interleaved-mutation equivalence
// harness: randomized schedules of inserts, deletes and queries, across
// shard counts and acceleration tiers, must keep every delta-maintained
// answer byte-identical to a cold recompute over the live graph set —
// and the maintenance must actually fire (delta_applied > 0), so the
// equivalence is proved against upgraded entries, not against a cache
// that silently fell back to invalidation.
func TestDeltaMatchesColdRecompute(t *testing.T) {
	base := testutil.SeededGraphs(401, 20)
	pool := testutil.SeededGraphs(402, 10)
	for i, g := range pool {
		g.SetName(fmt.Sprintf("new%02d", i))
	}
	queries := testutil.SeededQueries(403, base, 2)
	radius := 4.0

	for _, shards := range []int{1, 2, 3, 7} {
		for _, mode := range []string{"plain", "pivot-memo", "vector"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				db := gdb.NewSharded(shards)
				if err := db.InsertAll(base); err != nil {
					t.Fatal(err)
				}
				switch mode {
				case "pivot-memo":
					db.EnablePivots(pivot.Config{Pivots: 3})
					db.EnableScoreMemo(4096)
					db.WaitPivots()
				case "vector":
					db.EnablePivots(pivot.Config{Pivots: 3})
					db.EnableVector(vector.Config{Cells: 4, Dims: 16})
					db.WaitPivots()
				}
				s := New(db, Config{CacheSize: 256})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				rng := rand.New(rand.NewSource(int64(shards)*31 + int64(len(mode))))
				live := append([]*graph.Graph(nil), base...)
				next := 0
				for round := 0; round < 6; round++ {
					// Warm cached state so the mutation has something to
					// maintain: complete tables ("all" skyline) plus
					// ranked answers.
					for _, q := range queries {
						postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &SkylineResponse{})
						postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &TopKResponse{})
						postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &RangeResponse{})
					}
					// One interleaved mutation.
					if next < len(pool) && rng.Intn(2) == 0 {
						g := pool[next]
						next++
						postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, &InsertResponse{})
						live = append(live, g)
					} else {
						victim := rng.Intn(len(live))
						deleteGraph(t, ts.URL+"/graphs/"+live[victim].Name())
						live = append(live[:victim:victim], live[victim+1:]...)
					}
					// Every answer after the mutation must equal the
					// reference recompute (Definitions 11–12, leaf
					// functions only) over the live set.
					for qi, q := range queries {
						label := fmt.Sprintf("shards=%d mode=%s round=%d q=%d", shards, mode, round, qi)
						var sky SkylineResponse
						postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &sky)
						testutil.RequireSameSkyline(t, label+"/skyline", testutil.ReferenceSkyline(live, q, measure.Options{}), wirePoints(sky.Skyline))
						scores := testutil.ReferenceScores(live, q, measure.DistEd{}, measure.Options{})

						var tk TopKResponse
						postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &tk)
						testutil.RequireSameItems(t, label+"/topk", testutil.ReferenceTopK(scores, 3), wireItems(tk.Items))

						var rr RangeResponse
						postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rr)
						testutil.RequireSameItems(t, label+"/range", testutil.ReferenceRange(scores, radius), wireItems(rr.Items))
					}
				}
				if st := s.cache.Stats(); st.DeltaApplied == 0 {
					t.Fatalf("no deltas applied across the schedule: %+v", st)
				}
			})
		}
	}
}
