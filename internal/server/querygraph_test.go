package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
)

// resolveQuery resolves a request whose Graph field carries the query
// graph the way a handler resolves one that arrived on the wire: the
// graph's JSON bytes go through graphFor, then resolve.
func (s *Server) resolveQuery(kind string, req *QueryRequest) (resolved, error) {
	var raw json.RawMessage
	if req.Graph != nil {
		var err error
		if raw, err = json.Marshal(req.Graph); err != nil {
			return resolved{}, err
		}
	}
	qg, err := s.graphFor(raw)
	if err != nil {
		return resolved{}, err
	}
	return s.resolve(kind, req, qg)
}

// serveBody posts body to path through h with no TCP.
func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func paperQueryJSON(t testing.TB) string {
	t.Helper()
	data, err := json.Marshal(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestInvalidGraphBytesAreNotStored: a body whose query graph fails to
// decode answers the same 400 every time it is sent, with the error a
// plain decode of the body into the public request type reports, and
// leaves the graph map empty: only resolved graphs are stored.
func TestInvalidGraphBytesAreNotStored(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	cases := []struct {
		path, body string
		public     any
	}{
		{"/query/skyline", `{"graph":[null]}`, &QueryRequest{}},
		{"/query/skyline", `{"graph":"C"}`, &QueryRequest{}},
		{"/query/topk", `{"k":2,"graph":{"vertices":["C","O"],"edges":[{"u":0,"v":2,"label":"-"}]}}`, &QueryRequest{}},
		{"/query/range", `{"radius":1,"graph":{"vertices":["C"],"edges":[{"u":0,"v":0,"label":"-"}]}}`, &QueryRequest{}},
		{"/query/skyline", `{"k":"x","graph":[null]}`, &QueryRequest{}},
		{"/query/batch", `{"queries":[{"graph":{"vertices":[1]}},{"kind":"topk","graph":{"name":1}}]}`, &BatchRequest{}},
		{"/cache/warm", `{"queries":[{"graph":{"edges":[{"u":0,"v":1}]}}]}`, &WarmRequest{}},
	}
	for _, c := range cases {
		want := decodeJSON(strings.NewReader(c.body), c.public)
		if want == nil {
			t.Fatalf("%s %s: a plain decode accepts the body", c.path, c.body)
		}
		for try := range 2 {
			rec := serveBody(h, c.path, c.body)
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusBadRequest || e.Class != ClassBadRequest || e.Error != "bad request body: "+want.Error() {
				t.Errorf("%s %s, send %d: %d %s %q; want 400 %s %q", c.path, c.body, try+1,
					rec.Code, e.Class, e.Error, ClassBadRequest, "bad request body: "+want.Error())
			}
		}
	}
	if n := s.graphs.Len(); n != 0 {
		t.Fatalf("graph map holds %d entries after only failed decodes", n)
	}
}

// TestOverLimitBodyDecodesNoGraph: a batch or warm body over the item
// limit answers its limit error before any item graph is decoded, even
// when an item graph would fail to decode, and stores nothing.
func TestOverLimitBodyDecodesNoGraph(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16, MaxBatch: 2})
	h := s.Handler()
	q := paperQueryJSON(t)
	items := make([]string, 3)
	for i := range items {
		items[i] = `{"graph":` + strings.Replace(q, `"name":"q"`, fmt.Sprintf(`"name":"q%d"`, i), 1) + `}`
	}
	items[2] = `{"graph":[null]}`
	list := strings.Join(items, ",")
	cases := []struct{ path, body, want string }{
		{"/query/batch", `{"queries":[` + list + `]}`, "batch of 3 queries exceeds the limit of 2"},
		{"/cache/warm", `{"queries":[` + list + `]}`, "warm request of 3 queries exceeds the limit of 2"},
	}
	for _, c := range cases {
		rec := serveBody(h, c.path, c.body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || e.Class != ClassBadRequest || e.Error != c.want {
			t.Errorf("%s: %d %s %q; want 400 %s %q", c.path, rec.Code, e.Class, e.Error, ClassBadRequest, c.want)
		}
	}
	if n := s.graphs.Len(); n != 0 {
		t.Fatalf("graph map holds %d entries after over-limit bodies", n)
	}
}

// TestUnresolvedRequestStoresNoGraph: a valid query graph in a request
// that fails to resolve (an unknown basis or measure, a bad k or
// radius, a wrong batch kind) is not stored; the same graph in a
// request that resolves is. A graph over maxMappedGraphBytes is
// answered and never stored.
func TestUnresolvedRequestStoresNoGraph(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	q := paperQueryJSON(t)
	for _, c := range []struct{ path, body string }{
		{"/query/skyline", `{"graph":` + q + `,"basis":["nope"]}`},
		{"/query/topk", `{"graph":` + q + `,"k":0}`},
		{"/query/topk", `{"graph":` + q + `,"k":2,"measure":"nope"}`},
		{"/query/range", `{"graph":` + q + `}`},
		{"/query/range", `{"graph":` + q + `,"radius":-1}`},
	} {
		if rec := serveBody(h, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: %d %s; want 400", c.path, c.body, rec.Code, rec.Body)
		}
	}
	rec := serveBody(h, "/cache/warm", `{"queries":[{"graph":`+q+`,"basis":["nope"]}]}`)
	var wr WarmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(wr.Results) != 1 || wr.Results[0].Error == "" {
		t.Fatalf("warm item with an unknown basis: %d %s", rec.Code, rec.Body)
	}
	rec = serveBody(h, "/query/batch", `{"queries":[{"kind":"nope","graph":`+q+`},{"kind":"topk","graph":`+q+`}]}`)
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(br.Results) != 2 || br.Results[0].Error == "" || br.Results[1].Error == "" {
		t.Fatalf("batch of unresolvable items: %d %s", rec.Code, rec.Body)
	}
	if n := s.graphs.Len(); n != 0 {
		t.Fatalf("graph map holds %d entries after only unresolved requests", n)
	}

	big := strings.Replace(q, `"name":"q"`, `"name":"`+strings.Repeat("q", maxMappedGraphBytes)+`"`, 1)
	for try := range 2 {
		skylineOf(t, serveBody(h, "/query/skyline", `{"graph":`+big+`}`))
		if n := s.graphs.Len(); n != 0 {
			t.Fatalf("send %d of a graph over %d bytes: graph map holds %d entries", try+1, maxMappedGraphBytes, n)
		}
	}
	skylineOf(t, serveBody(h, "/query/skyline", `{"graph":`+q+`,"basis":["DistEd"]}`))
	if n := s.graphs.Len(); n != 1 {
		t.Fatalf("graph map holds %d entries after one resolved request", n)
	}
}

// TestMissingAndNullGraph: a body without a graph and one whose graph
// is null both read "missing query graph", on the query endpoints and
// per batch item, and store nothing.
func TestMissingAndNullGraph(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	for _, body := range []string{`{}`, `{"graph":null}`} {
		rec := serveBody(h, "/query/skyline", body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || e.Class != ClassBadRequest || e.Error != "missing query graph" {
			t.Errorf("%s: %d %s %q; want 400 %s \"missing query graph\"", body, rec.Code, e.Class, e.Error, ClassBadRequest)
		}
	}
	rec := serveBody(h, "/query/batch", `{"queries":[{},{"graph":null}]}`)
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("batch: %d with %d results", rec.Code, len(br.Results))
	}
	for i, r := range br.Results {
		if r.Error != "missing query graph" {
			t.Errorf("batch item %d error %q; want \"missing query graph\"", i, r.Error)
		}
	}
	if n := s.graphs.Len(); n != 0 {
		t.Fatalf("graph map holds %d entries with no graph sent", n)
	}
}

// TestGraphMapBoundedByCacheSize: the graph map never holds more than
// CacheSize entries, and CacheSize 0 stores nothing and still answers
// what a caching server answers.
func TestGraphMapBoundedByCacheSize(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 2})
	h := s.Handler()
	q := paperQueryJSON(t)
	for i := range 5 {
		// Each body spells the same graph with its own name: new bytes.
		body := `{"graph":` + strings.Replace(q, `"name":"q"`, fmt.Sprintf(`"name":"q%d"`, i), 1) + `}`
		if rec := serveBody(h, "/query/skyline", body); rec.Code != http.StatusOK {
			t.Fatalf("send %d: %d %s", i, rec.Code, rec.Body)
		}
		if n := s.graphs.Len(); n > 2 {
			t.Fatalf("after %d spellings the graph map holds %d entries; want at most 2", i+1, n)
		}
	}

	off, _ := newTestServer(t, Config{})
	ref, _ := newTestServer(t, Config{CacheSize: 16})
	body := `{"graph":` + q + `,"all":true}`
	want := skylineOf(t, serveBody(ref.Handler(), "/query/skyline", body))
	for try := range 2 {
		rec := serveBody(off.Handler(), "/query/skyline", body)
		got := skylineOf(t, rec)
		if got.Stats.CacheHit {
			t.Fatalf("send %d hit a disabled cache", try+1)
		}
		if !reflect.DeepEqual(got.Skyline, want.Skyline) || !reflect.DeepEqual(got.All, want.All) {
			t.Fatalf("send %d with CacheSize 0 answered %+v; want %+v", try+1, got, want)
		}
	}
	if n := off.graphs.Len(); n != 0 {
		t.Fatalf("CacheSize 0 graph map holds %d entries", n)
	}
}

func skylineOf(t *testing.T, rec *httptest.ResponseRecorder) SkylineResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var r SkylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIsomorphicSpellingsShareOneAnswer: the graph map is keyed by
// bytes and the answer cache by canonical hash, so two spellings of
// isomorphic graphs take two map entries and one cache entry, and the
// second spelling is a cache hit.
func TestIsomorphicSpellingsShareOneAnswer(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	perm, err := json.Marshal(permutedPaperQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	first := skylineOf(t, serveBody(h, "/query/skyline", `{"graph":`+paperQueryJSON(t)+`}`))
	second := skylineOf(t, serveBody(h, "/query/skyline", `{"graph":`+string(perm)+`}`))
	if first.Stats.CacheHit || !second.Stats.CacheHit {
		t.Fatalf("cache_hit first=%v second=%v; want false, true", first.Stats.CacheHit, second.Stats.CacheHit)
	}
	if !reflect.DeepEqual(first.Skyline, second.Skyline) {
		t.Fatalf("skylines differ: %+v vs %+v", first.Skyline, second.Skyline)
	}
	if g, c := s.graphs.Len(), s.cache.Stats().Entries; g != 2 || c != 1 {
		t.Fatalf("graph map %d entries, cache %d; want 2 and 1", g, c)
	}
}

// answerOnly strips what reports a request's own cost — stats, the
// trace, and a warm result's counts — from a JSON response body,
// leaving the answer.
func answerOnly(t testing.TB, body []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v: %s", err, body)
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "stats")
			delete(v, "trace")
			delete(v, "duration_ms")
			delete(v, "evaluated")
			delete(v, "cache_hit")
			for _, x := range v {
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	return v
}

// TestOneGraphAcrossEndpointsConcurrently: one set of graph bytes sent
// at once as skyline, top-k, range, batch and warm requests resolves to
// one graph map entry, and every answer equals a fresh server's.
func TestOneGraphAcrossEndpointsConcurrently(t *testing.T) {
	q := paperQueryJSON(t)
	reqs := []struct{ path, body string }{
		{"/query/skyline", `{"graph":` + q + `}`},
		{"/query/skyline", `{"graph":` + q + `,"all":true}`},
		{"/query/topk", `{"graph":` + q + `,"k":3}`},
		{"/query/range", `{"graph":` + q + `,"radius":4}`},
		{"/query/batch", `{"queries":[{"graph":` + q + `},{"kind":"topk","k":2,"graph":` + q + `},{"kind":"range","radius":3,"graph":` + q + `}]}`},
		{"/cache/warm", `{"queries":[{"graph":` + q + `},{"graph":` + q + `,"all":true}]}`},
	}
	want := make([]any, len(reqs))
	for i, r := range reqs {
		fresh, _ := newTestServer(t, Config{CacheSize: 16})
		rec := serveBody(fresh.Handler(), r.path, r.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", r.path, rec.Code, rec.Body)
		}
		want[i] = answerOnly(t, rec.Body.Bytes())
	}

	s, _ := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	const rounds = 4
	got := make([][]*httptest.ResponseRecorder, rounds)
	var wg sync.WaitGroup
	for k := range got {
		got[k] = make([]*httptest.ResponseRecorder, len(reqs))
		for i, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k][i] = serveBody(h, r.path, r.body)
			}()
		}
	}
	wg.Wait()
	for k := range got {
		for i, rec := range got[k] {
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d %s: %d %s", k, reqs[i].path, rec.Code, rec.Body)
			}
			if a := answerOnly(t, rec.Body.Bytes()); !reflect.DeepEqual(a, want[i]) {
				t.Errorf("round %d %s answered %v; a fresh server %v", k, reqs[i].path, a, want[i])
			}
		}
	}
	if n := s.graphs.Len(); n != 1 {
		t.Fatalf("graph map holds %d entries for one set of bytes", n)
	}
}

// FuzzQueryBody feeds arbitrary bytes to the query and batch endpoints.
// Each body goes twice to one server, so the second send finds its
// graph in the graph map (and, when it succeeded, its answer in the
// cache), and once to a fresh server. All three answers must agree on
// the status and, apart from what reports the request's own cost
// (stats and trace), on the body: an error body byte for byte. No body
// may panic the server.
func FuzzQueryBody(f *testing.F) {
	q := paperQueryJSON(f)
	for _, seed := range []string{
		`{"graph":[null]}`,
		`{"graph":null}`,
		`{}`,
		`{"graph":` + q + `,"k":2,"radius":3}`,
		`{"queries":[{"graph":[null]}]}`,
		`{"queries":[{"kind":"topk","k":2,"graph":` + q + `},{"graph":null}]}`,
	} {
		f.Add([]byte(seed))
	}
	// The timeout stops a large fuzzed graph's engines, and an answer it
	// cut short is skipped.
	cfg := Config{
		CacheSize:      64,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     10 * time.Second,
	}
	newServer := func() (*Server, http.Handler) {
		db := gdb.New()
		if err := db.InsertAll(dataset.PaperDB()); err != nil {
			panic(err) // the paper database always loads
		}
		s := New(db, cfg)
		return s, s.Handler()
	}
	_, shared := newServer()
	paths := []string{"/query/skyline", "/query/topk", "/query/range", "/query/batch"}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<10 {
			t.Skip("oversized body")
		}
		fresh, freshH := newServer()
		defer fresh.Close()
		for _, path := range paths {
			recs := []*httptest.ResponseRecorder{
				serveBody(shared, path, string(body)),
				serveBody(shared, path, string(body)),
				serveBody(freshH, path, string(body)),
			}
			for _, rec := range recs {
				if rec.Code == http.StatusGatewayTimeout {
					t.Skip("an evaluation timed out")
				}
			}
			for i, rec := range recs[1:] {
				if rec.Code != recs[0].Code {
					t.Fatalf("%s %q: send %d answered %d, the first %d", path, body, i+2, rec.Code, recs[0].Code)
				}
				if rec.Code != http.StatusOK {
					if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
						t.Fatalf("%s %q: send %d answered %s, the first %s", path, body, i+2, rec.Body, recs[0].Body)
					}
					continue
				}
				if a, b := answerOnly(t, rec.Body.Bytes()), answerOnly(t, recs[0].Body.Bytes()); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %q: send %d answered %v, the first %v", path, body, i+2, a, b)
				}
			}
		}
	})
}
