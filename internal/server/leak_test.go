package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
)

// TestConcurrentBatchAndInsertNoLeaks is the goroutine-leak regression
// test (run under -race in CI): concurrent batch queries and inserts
// against a server, then a clean shutdown, after which the
// goroutine count must return to its pre-server baseline. Worker pools
// that outlive their query, flight leaders that never publish, or
// handlers blocked on abandoned channels would all keep the count high.
func TestConcurrentBatchAndInsertNoLeaks(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	s, ts := newTestServer(t, Config{CacheSize: 32})
	client := ts.Client()

	const workers = 4
	const iters = 4
	radius := 3.0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				// Insert a fresh graph: bumps the generation and sweeps
				// the cache while queries are in flight.
				g := graph.Molecule(5, rng)
				g.SetName(fmt.Sprintf("leak-%d-%d", w, i))
				doPost(t, client, ts.URL+"/graphs", InsertRequest{Graph: g})
				doPost(t, client, ts.URL+"/query/batch", BatchRequest{Queries: []BatchQuery{
					{Kind: "skyline", QueryRequest: QueryRequest{Graph: dataset.PaperQuery()}},
					{Kind: "topk", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), K: 2}},
					{Kind: "range", QueryRequest: QueryRequest{Graph: dataset.PaperQuery(), Radius: &radius}},
				}})
			}
		}(w)
	}
	wg.Wait()

	if s.DB().Len() != 7+workers*iters {
		t.Fatalf("db holds %d graphs; want %d", s.DB().Len(), 7+workers*iters)
	}
	ts.Close()
	client.CloseIdleConnections()

	// Connections and handler goroutines drain asynchronously; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline after shutdown: %d -> %d", baseline, now)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// doPost is postJSON against a specific client, tolerating only 2xx.
func doPost(t *testing.T, client *http.Client, url string, body any) {
	t.Helper()
	resp := postJSONClient(t, client, url, body, nil)
	if resp.StatusCode/100 != 2 {
		t.Errorf("POST %s = %d", url, resp.StatusCode)
	}
}

// TestStatsHammerDuringQueries hammers GET /stats (which reads the
// cache and request counters) while queries, batches and inserts run —
// the regression test for torn or racy stats reads; -race in CI is the
// real assertion, status codes are the smoke check.
func TestStatsHammerDuringQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8})
	client := ts.Client()
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var st StatsResponse
			resp := getJSONClient(t, client, ts.URL+"/stats", &st)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stats status = %d", resp.StatusCode)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 6; i++ {
				g := graph.Molecule(5, rng)
				g.SetName(fmt.Sprintf("hammer-%d-%d", w, i))
				doPost(t, client, ts.URL+"/graphs", InsertRequest{Graph: g})
				doPost(t, client, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	hammer.Wait()

	st := statsOf(t, ts.URL)
	if st.Requests.Queries == 0 || st.Cache.Misses == 0 {
		t.Fatalf("hammer saw no work: %+v", st.Requests)
	}
}
