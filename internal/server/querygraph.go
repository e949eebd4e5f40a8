package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"skygraph/internal/graph"
)

// queryGraph is a decoded, validated query graph and its QueryHash.
// The graph is shared read-only by every request that sent the same
// bytes, as cache lineages share theirs.
type queryGraph struct {
	g  *graph.Graph
	qh string
	// raw holds the graph's bytes while the graph map does not hold
	// the graph: resolve stores it under them (keepGraph) once the
	// request resolves. A graph read from the map has no raw.
	raw json.RawMessage
}

// maxMappedGraphBytes is the largest query graph, in JSON bytes, the
// graph map stores, so the map's memory stays within its capacity
// times this size. A larger graph is decoded on every request, as
// every graph was before the map; its evaluation dwarfs the decode.
const maxMappedGraphBytes = 16 << 10

// wireQuery is how the server decodes a QueryRequest: every public
// field, with the query graph kept as its raw bytes. encoding/json
// prefers the shallower Graph field to the embedded one, so decoding a
// body builds no graph; graphFor does, once per distinct bytes.
type wireQuery struct {
	QueryRequest
	Graph json.RawMessage `json:"graph"`
}

// wireBatchQuery is a BatchQuery decoded the same way.
type wireBatchQuery struct {
	BatchQuery
	Graph json.RawMessage `json:"graph"`
}

// wireBatch and wireWarm are the batch and warm bodies with raw items.
type wireBatch struct {
	BatchRequest
	Queries []wireBatchQuery `json:"queries"`
}

type wireWarm struct {
	WarmRequest
	Queries []wireQuery `json:"queries"`
}

// readWire reads a query, batch or warm body and decodes it into wire,
// one of the wire types above. It returns the body for badBody.
func readWire(w http.ResponseWriter, r *http.Request, wire any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	return body, decodeJSON(bytes.NewReader(body), wire)
}

// badBody answers 400 for a body the server rejected while decoding it
// or one of its query graphs, with err. The body is first decoded once
// more into public, the request's public type, which decodes its
// graphs as it goes; when that decode fails its error is reported
// instead, so the client reads exactly the error a decode of the
// public type reports, down to which field or graph failed first.
func (s *Server) badBody(w http.ResponseWriter, body []byte, public any, err error) {
	if body != nil {
		if perr := decodeJSON(bytes.NewReader(body), public); perr != nil {
			err = perr
		}
	}
	s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// graphFor resolves one raw query graph: the zero queryGraph for a
// missing or null graph, the graph map's entry when these exact bytes
// were resolved before, else a fresh decode (which validates) and
// QueryHash. Equal bytes always decode to equal graphs, so an entry
// never goes stale: no mutation of the database touches the map.
func (s *Server) graphFor(raw json.RawMessage) (queryGraph, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return queryGraph{}, nil
	}
	if len(raw) <= maxMappedGraphBytes {
		if qg, ok := s.graphs.Get(string(raw)); ok {
			return qg, nil
		}
	}
	g := new(graph.Graph)
	if err := json.Unmarshal(raw, g); err != nil {
		return queryGraph{}, err
	}
	return queryGraph{g: g, qh: graph.QueryHash(g), raw: raw}, nil
}

// keepGraph stores a freshly decoded query graph in the graph map under
// its bytes. Only resolve calls it, once a request has resolved, so a
// request that fails to decode or resolve leaves the map as it was.
func (s *Server) keepGraph(qg queryGraph) {
	if len(qg.raw) > 0 && len(qg.raw) <= maxMappedGraphBytes {
		s.graphs.Put(string(qg.raw), queryGraph{g: qg.g, qh: qg.qh})
	}
}
