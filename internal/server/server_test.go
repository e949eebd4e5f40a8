package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/testutil"
)

// newTestServer serves the paper's 7-graph database.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, cfg, dataset.PaperDB())
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	return postJSONClient(t, http.DefaultClient, url, body, out)
}

func postJSONClient(t *testing.T, client *http.Client, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	return getJSONClient(t, http.DefaultClient, url, out)
}

func getJSONClient(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSkylineRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	var resp SkylineResponse
	r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), All: true}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if len(resp.Skyline) == 0 || len(resp.Skyline) > 7 {
		t.Fatalf("skyline size %d out of range", len(resp.Skyline))
	}
	if len(resp.All) != 7 {
		t.Fatalf("full table has %d rows; want 7", len(resp.All))
	}
	if resp.Stats.CacheHit || resp.Stats.Evaluated != 7 {
		t.Fatalf("first query stats = %+v; want cold miss evaluating 7", resp.Stats)
	}
	for _, p := range resp.Skyline {
		if len(p.Vec) != 3 {
			t.Fatalf("point %s has %d dims; want 3", p.ID, len(p.Vec))
		}
	}
}

// TestIsomorphicQueryHitsCache: the query rebuilt with its vertices in
// reverse order, a different wire encoding of an isomorphic graph,
// reuses the cached table through the canonical query hash.
func TestIsomorphicQueryHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &first)
	var second SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: permutedPaperQuery(t)}, &second)
	if !second.Stats.CacheHit {
		t.Fatal("isomorphic query should hit the cache via the canonical query hash")
	}
	if len(second.Skyline) != len(first.Skyline) {
		t.Fatalf("skyline sizes differ: %d vs %d", len(second.Skyline), len(first.Skyline))
	}
}

// TestMutationInvalidatesCache: a mutation the delta proofs cover
// upgrades the cached pruned table in place, and one they do not — the
// delete of a skyline member — invalidates it.
func TestMutationInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 16})
	q := dataset.PaperQuery()
	var first SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &first)
	if first.Stats.CacheHit {
		t.Fatal("first query cannot hit")
	}

	// Insert a graph: the generation bumps and the cached table is carried
	// across it.
	g := graph.New("extra")
	g.AddVertex("a")
	g.AddVertex("b")
	g.MustAddEdge(0, 1, "x")
	var ins InsertResponse
	r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, &ins)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d", r.StatusCode)
	}
	if len(ins.Inserted) != 1 || ins.Inserted[0] != "extra" {
		t.Fatalf("inserted = %v", ins.Inserted)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("cache holds %d entries after insert; want the upgraded table", s.Cache().Len())
	}
	var second SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &second)
	if !second.Stats.CacheHit || second.Stats.DeltaPatched != 1 {
		t.Fatalf("query after insert stats = %+v; want a hit on the patched table", second.Stats)
	}
	live := append(dataset.PaperDB(), g)
	testutil.RequireSameSkyline(t, "after insert", testutil.ReferenceSkyline(live, q), wirePoints(second.Skyline))

	// Deleting a skyline member leaves no proof: the table is dropped and
	// the next query re-evaluates the 7 remaining graphs.
	victim := second.Skyline[0].ID
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if s.Cache().Len() != 0 {
		t.Fatalf("cache holds %d entries after a front delete; want 0", s.Cache().Len())
	}
	var third SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &third)
	if third.Stats.CacheHit || third.Stats.Evaluated+third.Stats.Pruned != 7 {
		t.Fatalf("stats after delete = %+v; want a fresh build covering all 7", third.Stats)
	}

	st := statsOf(t, ts.URL)
	if st.Cache.Invalidations < 1 || st.Cache.DeltaApplied < 1 {
		t.Fatalf("stats report %d invalidations, %d deltas; want >= 1 each", st.Cache.Invalidations, st.Cache.DeltaApplied)
	}
}

func statsOf(t *testing.T, base string) StatsResponse {
	t.Helper()
	var st StatsResponse
	if r := getJSON(t, base+"/stats", &st); r.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", r.StatusCode)
	}
	return st
}

func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, nil)
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, nil)
	st := statsOf(t, ts.URL)
	if st.DB.Graphs != 7 {
		t.Fatalf("db graphs = %d; want 7", st.DB.Graphs)
	}
	if st.Requests.Queries != 2 {
		t.Fatalf("queries = %d; want 2", st.Requests.Queries)
	}
	if st.Requests.PairEvals+st.Requests.PairsPruned != 7 {
		t.Fatalf("pair evals %d + pruned %d; want 7 total (second query cached)",
			st.Requests.PairEvals, st.Requests.PairsPruned)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d; want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

func TestGraphCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	var list ListResponse
	getJSON(t, ts.URL+"/graphs", &list)
	if len(list.Names) != 7 {
		t.Fatalf("list has %d names; want 7", len(list.Names))
	}

	var got graph.Graph
	r := getJSON(t, ts.URL+"/graphs/"+list.Names[0], &got)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", r.StatusCode)
	}
	want := dataset.PaperDB()[0]
	if !got.Equal(want) {
		t.Fatalf("round-tripped graph differs:\n got %s\nwant %s", &got, want)
	}

	if r := getJSON(t, ts.URL+"/graphs/nope", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown status = %d; want 404", r.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown status = %d; want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	fresh := func(name string) *graph.Graph {
		g := dataset.PaperDB()[0].Clone()
		g.SetName(name)
		return g
	}
	var before ListResponse
	getJSON(t, ts.URL+"/graphs", &before)
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"missing graph", "/query/skyline", QueryRequest{}},
		{"bad measure", "/query/topk", QueryRequest{Graph: dataset.PaperQuery(), K: 1, Measure: "DistBogus"}},
		{"missing k", "/query/topk", QueryRequest{Graph: dataset.PaperQuery()}},
		{"missing radius", "/query/range", QueryRequest{Graph: dataset.PaperQuery()}},
		{"bad basis", "/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), Basis: []string{"DistBogus"}}},
		{"repeated basis", "/query/skyline", QueryRequest{Graph: dataset.PaperQuery(), Basis: []string{"DistEd", "DistMcs", "DistEd"}}},
		{"empty insert", "/graphs", InsertRequest{}},
		{"null graph element", "/graphs", InsertRequest{Graphs: []*graph.Graph{nil}}},
		{"null graph mid-insert", "/graphs", InsertRequest{Graphs: []*graph.Graph{fresh("n1"), nil, fresh("n2")}}},
		{"dot name", "/graphs", InsertRequest{Graph: fresh(".")}},
		{"dot-dot name", "/graphs", InsertRequest{Graphs: []*graph.Graph{fresh("n1"), fresh("..")}}},
	}
	for _, tc := range cases {
		if r := postJSON(t, ts.URL+tc.url, tc.body, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d; want 400", tc.name, r.StatusCode)
		}
	}
	// A rejected insert inserts nothing, not even the valid graphs ahead
	// of the bad element.
	var after ListResponse
	getJSON(t, ts.URL+"/graphs", &after)
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("rejected inserts changed GET /graphs: %+v -> %+v", before, after)
	}

	// Unknown fields are rejected too — including the retired "vector"
	// and "prune" opt-outs and "algorithm" choice on an otherwise valid
	// request.
	valid, err := json.Marshal(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"graf": {}}`,
		`{"graph": ` + string(valid) + `, "vector": false}`,
		`{"graph": ` + string(valid) + `, "prune": false}`,
		`{"graph": ` + string(valid) + `, "algorithm": "bnl"}`,
	} {
		resp, err := http.Post(ts.URL+"/query/skyline", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Class != ClassBadRequest {
			t.Errorf("unknown field in %.20s…: status = %d class = %q; want 400 %s", body, resp.StatusCode, e.Class, ClassBadRequest)
		}
	}

	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: dataset.PaperDB()[0]}, nil); r.StatusCode != http.StatusConflict {
		t.Errorf("duplicate insert: status = %d; want 409", r.StatusCode)
	}
}

// TestRepeatedBasisRejected: a basis naming one measure 10 000 times
// would ask a pruned scan for a corner column per name. The skyline
// endpoint, a batch item and a warm item carrying it each answer 400
// bad_request before any pair is evaluated.
func TestRepeatedBasisRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	basis := make([]string, 10_000)
	for i := range basis {
		basis[i] = "DistEd"
	}
	item := QueryRequest{Graph: dataset.PaperQuery(), Basis: basis}
	for _, c := range []struct {
		url  string
		body any
	}{
		{"/query/skyline", item},
		{"/query/batch", BatchRequest{Queries: []BatchQuery{{QueryRequest: item}}}},
		{"/cache/warm", WarmRequest{Queries: []QueryRequest{item}}},
	} {
		var before, after StatsResponse
		getJSON(t, ts.URL+"/stats", &before)
		data, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+c.url, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Class != ClassBadRequest {
			t.Errorf("%s: status = %d class = %q; want 400 %s", c.url, resp.StatusCode, e.Class, ClassBadRequest)
		}
		getJSON(t, ts.URL+"/stats", &after)
		if after.Requests.PairEvals != before.Requests.PairEvals {
			t.Errorf("%s: pair_evals %d -> %d; want no evaluation", c.url, before.Requests.PairEvals, after.Requests.PairEvals)
		}
	}
}

func TestCustomBasisQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	// A topk on a measure outside the requested basis extends the basis.
	var tk TopKResponse
	r := postJSON(t, ts.URL+"/query/topk", QueryRequest{
		Graph:   dataset.PaperQuery(),
		K:       2,
		Measure: "DistDegree",
		Basis:   []string{"DistMcs"},
	}, &tk)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if tk.Measure != "DistDegree" || len(tk.Items) != 2 {
		t.Fatalf("resp = %+v", tk)
	}
	// Same request again: hits its own (extended-basis) table.
	var again TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{
		Graph:   dataset.PaperQuery(),
		K:       2,
		Measure: "DistDegree",
		Basis:   []string{"DistMcs"},
	}, &again)
	if !again.Stats.CacheHit {
		t.Fatal("repeat custom-basis query should hit")
	}
}

// TestConcurrentIdenticalQueriesCoalesce covers both callers of the one
// coalescing loop: concurrent identical skyline queries share one table
// build, concurrent identical top-k queries one ranked scan.
func TestConcurrentIdenticalQueriesCoalesce(t *testing.T) {
	for _, kind := range []string{"skyline", "topk"} {
		_, ts := newTestServer(t, Config{CacheSize: 16})
		const n = 8
		var wg sync.WaitGroup
		stats := make([]QueryStats, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var resp struct{ Stats QueryStats }
				postJSON(t, ts.URL+"/query/"+kind, QueryRequest{Graph: dataset.PaperQuery(), K: 3}, &resp)
				stats[i] = resp.Stats
			}(i)
		}
		wg.Wait()
		// Whether followers coalesced on the in-flight leader or hit the
		// cache afterwards, the total pair-evaluation work is exactly one
		// evaluation covering all 7 graphs (evaluated or bound-pruned).
		st := statsOf(t, ts.URL)
		if st.Requests.PairEvals+st.Requests.PairsPruned != 7 {
			t.Fatalf("%s: pair evals %d + pruned %d across %d concurrent identical queries; want 7 total",
				kind, st.Requests.PairEvals, st.Requests.PairsPruned, n)
		}
		misses := 0
		for _, qs := range stats {
			if !qs.CacheHit {
				misses++
			}
		}
		if misses != 1 {
			t.Fatalf("%s: %d of %d concurrent queries report a miss; want exactly the leader", kind, misses, n)
		}
	}
}

// TestFollowerRetriesAfterLeaderFailure: a follower whose flight leader
// fails evaluates itself instead of inheriting the failure, on both the
// table and the ranked caller of the coalescing loop.
func TestFollowerRetriesAfterLeaderFailure(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	// failingLeader registers a leader for key that fails on its own
	// deadline: in the flight map, then (as the real leader does) removed
	// before done is closed with an error set.
	failingLeader := func(key cacheKey) {
		c := &flightCall{done: make(chan struct{}), err: context.DeadlineExceeded}
		s.flightMu.Lock()
		s.flight[key] = c
		s.flightMu.Unlock()
		go func() {
			time.Sleep(10 * time.Millisecond)
			s.flightMu.Lock()
			delete(s.flight, key)
			s.flightMu.Unlock()
			close(c.done)
		}()
	}

	res, err := s.resolveQuery("skyline", &QueryRequest{Graph: dataset.PaperQuery()})
	if err != nil {
		t.Fatal(err)
	}
	failingLeader(res.key)
	e, hit, err := s.entry(context.Background(), res)
	if err != nil {
		t.Fatalf("table follower inherited the leader's failure: %v", err)
	}
	if hit {
		t.Fatal("table follower should have evaluated itself after the leader failed")
	}
	if tab := e.table; len(tab.Points)+tab.Pruned != 7 {
		t.Fatalf("table covers %d rows + %d pruned; want 7", len(tab.Points), tab.Pruned)
	}

	req := &QueryRequest{Graph: dataset.PaperQuery(), K: 3}
	if res, err = s.resolveQuery("topk", req); err != nil {
		t.Fatal(err)
	}
	failingLeader(res.key)
	ra, hit, err := s.entry(context.Background(), res)
	if err != nil {
		t.Fatalf("ranked follower inherited the leader's failure: %v", err)
	}
	if hit {
		t.Fatal("ranked follower should have evaluated itself after the leader failed")
	}
	if len(ra.items) != 3 || ra.work.Evaluated+ra.work.Pruned != 7 {
		t.Fatalf("ranked answer %v covers %d evaluated + %d pruned; want 3 items over 7",
			ra.items, ra.work.Evaluated, ra.work.Pruned)
	}
}

func TestInsertInvalidGraphIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	// Nameless graph.
	g := graph.New("")
	g.AddVertex("a")
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless graph: status = %d; want 400", r.StatusCode)
	}
	// Structurally invalid graph (edge endpoint out of range) — built via
	// raw JSON since the Graph API refuses to construct it.
	body := []byte(`{"graph": {"name": "bad", "vertices": ["a"], "edges": [{"u": 0, "v": 5, "label": "x"}]}}`)
	resp, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid edge: status = %d; want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body map[string]string
	if r := getJSON(t, ts.URL+"/healthz", &body); r.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", r.StatusCode, body)
	}
}

func TestEvictionUnderManyDistinctQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	for i := 0; i < 4; i++ {
		q := graph.New(fmt.Sprintf("q%d", i))
		for v := 0; v <= i+1; v++ {
			q.AddVertex("a")
		}
		for v := 0; v <= i; v++ {
			q.MustAddEdge(v, v+1, "x")
		}
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, nil)
	}
	if got := s.Cache().Len(); got != 2 {
		t.Fatalf("cache len = %d; want bounded at 2", got)
	}
	if st := s.Cache().Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d; want 2", st.Evictions)
	}
}
