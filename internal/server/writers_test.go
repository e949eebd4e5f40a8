package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// TestConcurrentWritersMatchColdRecompute runs several writers against
// delta maintenance at once: in each round, each goroutine inserts and
// deletes its own names over HTTP while readers keep the skyline, top-k
// and range answers of two queries warm. All mutations share one
// generation counter, so maintenance passes race over the same entries,
// and an entry one pass has not settled yet is dropped by the next.
// Whatever each entry ended up as — upgraded, dropped or rebuilt —
// every answer served once a round's writers are done must equal a cold
// recompute over that state, in its insertion order. CI runs it under
// -race -count=4.
func TestConcurrentWritersMatchColdRecompute(t *testing.T) {
	const writers, rounds, perRound = 3, 4, 4
	base := testutil.SeededGraphs(561, 18)
	pool := testutil.SeededGraphs(562, writers*rounds*perRound)
	byName := map[string]*graph.Graph{}
	for _, g := range base {
		byName[g.Name()] = g
	}
	// inserts[r][w] are the graphs writer w inserts in round r.
	inserts := make([][][]*graph.Graph, rounds)
	for r := range inserts {
		inserts[r] = make([][]*graph.Graph, writers)
		for w := range writers {
			for j := range perRound {
				g := pool[(r*writers+w)*perRound+j]
				g.SetName(fmt.Sprintf("w%d-r%d-%d", w, r, j))
				byName[g.Name()] = g
				inserts[r][w] = append(inserts[r][w], g)
			}
		}
	}
	queries := testutil.SeededQueries(563, base, 2)
	radius := 4.0
	s, ts := newTestServerWith(t, Config{CacheSize: 64}, base)

	read := func(q *graph.Graph) error {
		for _, kind := range []string{"skyline", "topk", "range"} {
			if err := send(http.MethodPost, ts.URL+"/query/"+kind, QueryRequest{Graph: q, K: 3, Radius: &radius}); err != nil {
				return err
			}
		}
		return nil
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	defer func() { close(done); readers.Wait() }()
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := read(queries[i%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for round := range rounds {
		// Writer w interleaves its inserts of the round with deletes of
		// its own names: its share of the base graphs in round 0, its
		// previous round's inserts after that. No two writers touch one
		// name.
		var wg sync.WaitGroup
		for w := range writers {
			victims := inserts[max(round-1, 0)][w]
			if round == 0 {
				victims = nil
				for i := w; len(victims) < perRound; i += writers {
					victims = append(victims, base[i])
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j, g := range inserts[round][w] {
					if err := send(http.MethodPost, ts.URL+"/graphs", InsertRequest{Graph: g}); err != nil {
						t.Error(err)
						return
					}
					if err := send(http.MethodDelete, ts.URL+"/graphs/"+victims[j].Name(), nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		var list ListResponse
		getJSON(t, ts.URL+"/graphs", &list)
		live := make([]*graph.Graph, len(list.Names))
		for i, name := range list.Names {
			live[i] = byName[name]
		}
		if len(live) != len(base) {
			t.Fatalf("round %d: state holds %d graphs, want %d", round, len(live), len(base))
		}
		for qi, q := range queries {
			label := fmt.Sprintf("round %d q%d", round, qi)
			scores := testutil.ReferenceScores(live, q, measure.DistEd)
			var sky SkylineResponse
			postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &sky)
			if want := testutil.ReferenceSkyline(live, q); !reflect.DeepEqual(wirePoints(sky.Skyline), want) {
				t.Fatalf("%s skyline:\n got %v\nwant %v", label, wirePoints(sky.Skyline), want)
			}
			var tk TopKResponse
			postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &tk)
			testutil.RequireSameItems(t, label+" topk", testutil.ReferenceTopK(scores, 3), wireItems(tk.Items))
			var rg RangeResponse
			postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rg)
			testutil.RequireSameItems(t, label+" range", testutil.ReferenceRange(scores, radius), wireItems(rg.Items))
		}
	}
	if s.cache.Stats().DeltaApplied == 0 {
		t.Fatal("no delta applied under concurrent writers")
	}
}

// send issues one request from any goroutine and requires a 200.
func send(method, url string, body any) error {
	var rd bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd.Reset(data)
	}
	req, err := http.NewRequest(method, url, &rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return nil
}
