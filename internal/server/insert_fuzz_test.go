package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
)

// FuzzInsertBody feeds arbitrary bytes to POST /graphs on a fresh
// in-memory server holding the last paper graph, so a body naming it
// conflicts part way. No body may answer 5xx; a 400 must insert nothing
// (Len and Generation unchanged); a 409 must report, as inserted, only
// names that GET /graphs/{name} returns; and a 200 must list only such
// names.
func FuzzInsertBody(f *testing.F) {
	paper := dataset.PaperDB()
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(data)
	}
	fresh := func(name string) *graph.Graph {
		g := paper[0].Clone()
		g.SetName(name)
		return g
	}
	for _, seed := range []string{
		`{"graphs":[null]}`,
		`{"graph":null}`,
		`{}`,
		marshal(InsertRequest{Graph: fresh("a"), Graphs: []*graph.Graph{fresh("b")}}),
		marshal(InsertRequest{Graphs: []*graph.Graph{fresh("a"), fresh("b"), fresh("a")}}),
		marshal(InsertRequest{Graphs: paper}),
		marshal(InsertRequest{Graph: dataset.PaperQuery()}),
		marshal(InsertRequest{Graph: fresh("..")}),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<14 {
			t.Skip("oversized body")
		}
		db := gdb.New()
		if _, err := db.Insert(paper[len(paper)-1], ""); err != nil {
			t.Fatal(err)
		}
		s := New(db, Config{})
		defer s.Close()
		h := s.Handler()
		n, gen := db.Len(), db.Generation()
		rec := serveBody(h, "/graphs", string(body))
		fetchable := func(name string) bool {
			get := httptest.NewRecorder()
			h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/graphs/"+url.PathEscape(name), nil))
			return get.Code == http.StatusOK
		}
		switch rec.Code {
		case http.StatusOK:
			var resp InsertResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: 200 body %s: %v", body, rec.Body, err)
			}
			for _, name := range resp.Inserted {
				if !fetchable(name) {
					t.Fatalf("%q: 200 lists %q, which GET /graphs/{name} does not return", body, name)
				}
			}
		case http.StatusBadRequest:
			if db.Len() != n || db.Generation() != gen {
				t.Fatalf("%q: 400 changed the store: %d graphs at generation %d, was %d at %d", body, db.Len(), db.Generation(), n, gen)
			}
		case http.StatusConflict:
			var resp ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.PartialInsert == nil {
				t.Fatalf("%q: 409 body %s carries no partial insert (%v)", body, rec.Body, err)
			}
			for _, name := range resp.PartialInsert.Inserted {
				if !fetchable(name) {
					t.Fatalf("%q: 409 reports %q inserted, which GET /graphs/{name} does not return", body, name)
				}
			}
		default:
			if rec.Code >= 500 {
				t.Fatalf("%q: %d %s", body, rec.Code, rec.Body)
			}
		}
	})
}
