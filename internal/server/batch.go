package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/measure"
)

// DefaultMaxBatch is the /query/batch size limit when Config.MaxBatch
// is unset.
const DefaultMaxBatch = 256

// maxBatch is the item limit of /query/batch and /cache/warm.
func (s *Server) maxBatch() int {
	if s.cfg.MaxBatch > 0 {
		return s.cfg.MaxBatch
	}
	return DefaultMaxBatch
}

// handleBatch answers POST /query/batch: many queries, one request.
// Items run concurrently, each on the path its kind fixes — exactly the
// path the dedicated endpoint would take — so identical (or isomorphic)
// items coalesce onto a single evaluation per (query hash, path),
// first via the in-flight leader, then via the cache. Once the item
// count passes the limit check, item graphs resolve by their bytes
// through the graph map before any item runs, so a graph that fails to
// decode, or a basis that names a measure twice, fails the whole body.
// The whole batch shares one
// time budget; an item that fails (bad request, timeout) reports its
// error in place without failing the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitQuery(w) {
		return
	}
	defer s.releaseQuery()
	s.batches.Add(1)
	start := time.Now()
	var req wireBatch
	body, err := readWire(w, r, &req)
	if err != nil {
		s.badBody(w, body, &BatchRequest{}, err)
		return
	}
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = headerTimeoutMS(r)
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.maxBatch() {
		s.writeError(w, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(req.Queries), s.maxBatch())
		return
	}
	qgs := make([]queryGraph, len(req.Queries))
	for i := range req.Queries {
		if err := repeatedBasis(req.Queries[i].Basis); err != nil {
			s.writeError(w, http.StatusBadRequest, "queries[%d]: %v", i, err)
			return
		}
		if qgs[i], err = s.graphFor(req.Queries[i].Graph); err != nil {
			s.badBody(w, body, &BatchRequest{}, err)
			return
		}
	}

	ctx := r.Context()
	if d := s.timeout(&QueryRequest{TimeoutMS: req.TimeoutMS}); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// One worker pool resolves and executes the items.
	results := make([]BatchResult, len(req.Queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(req.Queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				results[i] = s.runBatchQuery(ctx, &req.Queries[i].BatchQuery, qgs[i])
			}
		}()
	}
	wg.Wait()

	stats := BatchStats{Queries: len(results), DurationMS: float64(time.Since(start).Microseconds()) / 1000}
	for _, res := range results {
		if res.Error != "" {
			stats.Errors++
			continue
		}
		qs := res.stats()
		stats.Work.Add(qs.Work)
		stats.DeltaPatched += qs.DeltaPatched
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, Stats: stats})
}

// repeatedBasis returns measure.BasisByNames' error for a basis that
// names a measure twice, and nil otherwise. A batch or warm body with
// such an item fails whole with 400 before any item runs, as one over
// the item limit does; an item with an unknown name fails in place.
func repeatedBasis(names []string) error {
	if _, err := measure.BasisByNames(names); errors.Is(err, measure.ErrRepeatedMeasure) {
		return err
	}
	return nil
}

// runBatchQuery resolves and executes one batch item over its query
// graph qg end to end, reporting failures in the result instead of
// aborting the batch.
func (s *Server) runBatchQuery(ctx context.Context, bq *BatchQuery, qg queryGraph) BatchResult {
	s.queries.Add(1)
	start := time.Now()
	kind := bq.Kind
	if kind == "" {
		kind = "skyline"
	}
	out := BatchResult{Kind: kind}
	res, err := s.resolve(kind, &bq.QueryRequest, qg)
	var ans answer
	if err == nil {
		ans, err = s.execQuery(ctx, kind, &bq.QueryRequest, res, start)
	}
	if err != nil {
		// A resolve error keeps its message; an evaluation error (a
		// timeout, say) reads as the query endpoints report it.
		_, _, out.Error = s.classifyQueryErr(err)
		s.errors.Add(1)
		return out
	}
	s.finishQuery(kind, &bq.QueryRequest, res, ans, start)
	out.Skyline, out.TopK, out.Range = ans.sky, ans.tk, ans.rng
	return out
}
