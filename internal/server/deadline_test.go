package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"skygraph/internal/graph"
)

// TestDeadlineStopsKernels: a query's deadline stops the exact engines
// of the flight leader that runs it. Over two order-17 molecules whose
// plain skyline takes seconds, a query with a 50 ms timeout answers 504
// timeout well inside 150 ms instead of when its engines would have
// finished, and no engine runs on behind the answer: a cheap query sent
// right after it succeeds at once.
func TestDeadlineStopsKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b, q := graph.Molecule(17, rng), graph.Molecule(17, rng), graph.Molecule(17, rng)
	a.SetName("a")
	b.SetName("b")
	_, ts := newTestServerWith(t, Config{CacheSize: 16}, nil)
	for _, g := range []*graph.Graph{a, b} {
		if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("insert %s: status %d", g.Name(), r.StatusCode)
		}
	}

	data, err := json.Marshal(QueryRequest{Graph: q, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/query/skyline", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var e ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusGatewayTimeout || e.Class != ClassTimeout {
		t.Fatalf("deadline query: %d %s (%v); want 504 %s", resp.StatusCode, e.Class, err, ClassTimeout)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("a 50 ms deadline answered after %v; want within 150 ms", elapsed)
	}

	cheap := graph.New("cheap")
	cheap.AddVertex("C")
	start = time.Now()
	var sky SkylineResponse
	if r := postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: cheap, TimeoutMS: 1000}, &sky); r.StatusCode != http.StatusOK {
		t.Fatalf("cheap query after the deadline: status %d", r.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond || len(sky.Skyline) == 0 {
		t.Fatalf("cheap query answered %d members after %v; want an answer within 150 ms", len(sky.Skyline), elapsed)
	}
}
