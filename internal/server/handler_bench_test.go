package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
)

// BenchmarkHandlerHit times cached answers through Handler() with no
// TCP: the request decode, the query graph's resolution, the cache
// lookup, the answer's shaping and its encoding. The store has the
// hot-repeat workload's shape (500 graphs of order 5 in 20 families of
// 2-edit mutations) and the 48 queries are one-edit mutations of its
// graphs; every query is warmed before the clock starts, so each timed
// request is a hit.
func BenchmarkHandlerHit(b *testing.B) {
	roots := dataset.MoleculeDB(20, 5, 5, 1)
	gs := dataset.NoisyQueries(roots, 500, 2, 3)
	for i, g := range gs {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	db := gdb.New()
	if err := db.InsertAll(gs); err != nil {
		b.Fatal(err)
	}
	h := New(db, Config{CacheSize: 256}).Handler()
	qs := dataset.NoisyQueries(gs, 48, 1, 4)

	radius := 2.0
	item := func(kind string, q *graph.Graph) BatchQuery {
		bq := BatchQuery{Kind: kind, QueryRequest: QueryRequest{Graph: q}}
		switch kind {
		case "topk":
			bq.K, bq.Measure = 5, "DistEd"
		case "range":
			bq.Radius, bq.Measure = &radius, "DistEd"
		}
		return bq
	}
	encode := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name, path string
		body       func(i int) []byte
	}{
		{"skyline", "/query/skyline", func(i int) []byte { return encode(item("skyline", qs[i]).QueryRequest) }},
		{"topk", "/query/topk", func(i int) []byte { return encode(item("topk", qs[i]).QueryRequest) }},
		{"range", "/query/range", func(i int) []byte { return encode(item("range", qs[i]).QueryRequest) }},
		{"batch4", "/query/batch", func(i int) []byte {
			var req BatchRequest
			for j, kind := range []string{"skyline", "topk", "range", "skyline"} {
				req.Queries = append(req.Queries, item(kind, qs[(i+j)%len(qs)]))
			}
			return encode(req)
		}},
	}
	// http.NewRequest rather than httptest.NewRequest, which parses a
	// whole request through a 4 KB bufio.Reader per call: the timed
	// work stays the handler's.
	serve := func(tb testing.TB, path string, body []byte) {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	for _, c := range cases {
		bodies := make([][]byte, len(qs))
		for i := range bodies {
			bodies[i] = c.body(i)
			serve(b, c.path, bodies[i])
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				serve(b, c.path, bodies[i%len(bodies)])
				i++
			}
		})
	}
}
