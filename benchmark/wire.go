package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"skygraph/internal/graph"
)

// The harness owns its wire structs: the JSON contract of skygraphd is
// what a client sees, so a rename inside internal/server must not
// silently change what the benchmark sends or reads. Only the fields
// the benchmark uses are declared.

type wireEdge struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label"`
}

type wireGraph struct {
	Name     string     `json:"name"`
	Vertices []string   `json:"vertices"`
	Edges    []wireEdge `json:"edges"`
}

func toWire(g *graph.Graph) wireGraph {
	w := wireGraph{Name: g.Name(), Vertices: g.VertexLabels(), Edges: []wireEdge{}}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, wireEdge{U: e.U, V: e.V, Label: e.Label})
	}
	return w
}

type wireQuery struct {
	Kind    string    `json:"kind,omitempty"` // batch items only
	Graph   wireGraph `json:"graph"`
	K       int       `json:"k,omitempty"`
	Radius  *float64  `json:"radius,omitempty"`
	Measure string    `json:"measure,omitempty"`
	Trace   bool      `json:"trace,omitempty"`
}

type wireStage struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	Pairs      int     `json:"pairs"`
	Pruned     int     `json:"pruned"`
}

type wireQueryStats struct {
	Evaluated  int     `json:"evaluated"`
	Pruned     int     `json:"pruned"`
	CacheHit   bool    `json:"cache_hit"`
	DurationMS float64 `json:"duration_ms"`
}

type wirePoint struct {
	ID  string    `json:"id"`
	Vec []float64 `json:"vec"`
}

type wireItem struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// wireAnswer is the union of the skyline, top-k and range responses.
type wireAnswer struct {
	Skyline []wirePoint    `json:"skyline"`
	Items   []wireItem     `json:"items"`
	Stats   wireQueryStats `json:"stats"`
	Trace   []wireStage    `json:"trace"`
}

type wireBatchResult struct {
	Kind    string      `json:"kind"`
	Skyline *wireAnswer `json:"skyline"`
	TopK    *wireAnswer `json:"topk"`
	Range   *wireAnswer `json:"range"`
	Error   string      `json:"error"`
}

func (r wireBatchResult) answer() *wireAnswer {
	switch {
	case r.Skyline != nil:
		return r.Skyline
	case r.TopK != nil:
		return r.TopK
	}
	return r.Range
}

type wireBatchResponse struct {
	Results []wireBatchResult `json:"results"`
	Stats   struct {
		DurationMS float64 `json:"duration_ms"`
	} `json:"stats"`
}

type wireWarmResponse struct {
	Results []struct {
		Error string `json:"error"`
	} `json:"results"`
}

type wireInsertResponse struct {
	Inserted []string `json:"inserted"`
}

type wireListResponse struct {
	Names []string `json:"names"`
}

// wireStats is the slice of GET /stats the per-layer metrics are
// diffed from.
type wireStats struct {
	Cache struct {
		Hits           uint64 `json:"hits"`
		Misses         uint64 `json:"misses"`
		DeltaApplied   uint64 `json:"delta_applied"`
		DeltaFallbacks uint64 `json:"delta_fallbacks"`
	} `json:"cache"`
	Memo *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"memo"`
	Durability *struct {
		WALSizeBytes int64  `json:"wal_size_bytes"`
		WALAppends   uint64 `json:"wal_appends"`
		WALFsyncs    uint64 `json:"wal_fsyncs"`
	} `json:"durability"`
	Requests struct {
		PairEvals       uint64 `json:"pair_evals"`
		PairsPruned     uint64 `json:"pairs_pruned"`
		PivotPruned     uint64 `json:"pivot_pruned"`
		PivotDists      uint64 `json:"pivot_dists"`
		VectorCells     uint64 `json:"vector_cells_probed"`
		VectorSkipped   uint64 `json:"vector_skipped"`
		VectorFallbacks uint64 `json:"vector_fallbacks"`
	} `json:"requests"`
}

// httpClient is the frozen client side of every workload: one
// keep-alive connection pool against the loopback listener.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		base: base,
		hc: &http.Client{
			Timeout:   sutTimeout + 5*time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out (nil
// discards it). Any transport error, non-2xx status or undecodable
// body is an error — the caller counts it as a failed op.
func (c *httpClient) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

func (c *httpClient) stats() (wireStats, error) {
	var st wireStats
	err := c.do(http.MethodGet, "/stats", nil, &st)
	return st, err
}

func (c *httpClient) names() ([]string, error) {
	var l wireListResponse
	err := c.do(http.MethodGet, "/graphs", nil, &l)
	return l.Names, err
}

// waitReady polls /readyz until the pivot columns have drained.
func (c *httpClient) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		err := c.do(http.MethodGet, "/readyz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %s: %w", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func deletePath(name string) string { return "/graphs/" + url.PathEscape(name) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // harness-owned structs of strings and numbers always encode
	}
	return b
}
