package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/gdb"
)

// DefaultMaxBatch is the /query/batch size limit when Config.MaxBatch
// is unset.
const DefaultMaxBatch = 256

// handleBatch answers POST /query/batch: many queries, one request.
// Items run concurrently through the same per-shard table path as the
// dedicated endpoints, so identical (or isomorphic) query graphs in one
// batch coalesce onto a single table build per (shard, query-hash) pair
// — first via the in-flight leader, then via the cache. The whole batch
// shares one time budget; an item that fails (bad request, timeout)
// reports its error in place without failing the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitQuery(w) {
		return
	}
	defer s.releaseQuery()
	s.batches.Add(1)
	start := time.Now()
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = headerTimeoutMS(r)
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	maxBatch := s.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(req.Queries) > maxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatch)
		return
	}

	ctx := r.Context()
	if d := s.timeout(&QueryRequest{TimeoutMS: req.TimeoutMS}); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	workers := s.cfg.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Queries) {
		workers = len(req.Queries)
	}

	// Resolve every item first — in parallel, since resolution includes
	// the per-item query-graph canonicalization — then de-conflict
	// evaluation variants per table group (same query hash, basis,
	// engine budgets). A group runs unpruned — one shared complete
	// build per shard — when any member needs a complete table (a
	// skyline asking for the full table, any explicit prune=false), or
	// when it mixes pruned skyline and pruned ranked members: one full
	// build answers every kind, where separate pruned-table and
	// best-first evaluations would each re-pay most of the group's pair
	// work. Groups that are uniformly pruned-skyline or uniformly
	// pruned-ranked keep their cheaper pruned paths.
	items := make([]batchItem, len(req.Queries))
	var resolveWG sync.WaitGroup
	var nextItem atomic.Int64
	for w := 0; w < workers; w++ {
		resolveWG.Add(1)
		go func() {
			defer resolveWG.Done()
			for {
				i := int(nextItem.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				items[i] = s.resolveBatchItem(&req.Queries[i])
			}
		}()
	}
	resolveWG.Wait()
	needFull := make(map[string]bool)
	prunedKinds := make(map[string]int) // bit 1: skyline member, bit 2: ranked member
	for i := range items {
		if items[i].errMsg != "" {
			continue
		}
		group := items[i].res.tableGroup()
		switch {
		case !items[i].res.prune:
			needFull[group] = true
		case items[i].kind == "skyline":
			prunedKinds[group] |= 1
		default:
			prunedKinds[group] |= 2
		}
	}
	for group, kinds := range prunedKinds {
		if kinds == 1|2 {
			needFull[group] = true
		}
	}
	for i := range items {
		if items[i].errMsg == "" && items[i].res.prune && needFull[items[i].res.tableGroup()] {
			items[i].res.prune = false
		}
	}

	results := make([]BatchResult, len(req.Queries))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = s.runBatchQuery(ctx, items[i], &req.Queries[i])
			}
		}()
	}
	for i := range req.Queries {
		work <- i
	}
	close(work)
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
		stats.ShardHits += qs.ShardHits
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, Stats: stats})
}

// batchItem is one validated and resolved batch entry, ready to
// execute (or carrying the validation error to report in place).
type batchItem struct {
	kind   string
	res    resolved
	errMsg string
}

// resolveBatchItem validates and resolves one batch entry without
// executing it, so handleBatch can plan table sharing across the batch
// before any evaluation starts.
func (s *Server) resolveBatchItem(bq *BatchQuery) batchItem {
	kind := bq.Kind
	if kind == "" {
		kind = "skyline"
	}
	it := batchItem{kind: kind}
	var validate func(*QueryRequest) error
	needMeasure := false
	switch kind {
	case "skyline":
	case "topk":
		needMeasure, validate = true, validateTopK
	case "range":
		needMeasure, validate = true, validateRange
	default:
		it.errMsg = fmt.Sprintf("unknown query kind %q (want skyline, topk or range)", kind)
		return it
	}
	if validate != nil {
		if err := validate(&bq.QueryRequest); err != nil {
			it.errMsg = err.Error()
			return it
		}
	}
	res, err := s.resolveQuery(&bq.QueryRequest, needMeasure)
	if err != nil {
		it.errMsg = err.Error()
		return it
	}
	it.res = res
	return it
}

// runBatchQuery executes one resolved batch item end to end, reporting
// failures in the result instead of aborting the batch.
func (s *Server) runBatchQuery(ctx context.Context, it batchItem, bq *BatchQuery) BatchResult {
	s.queries.Add(1)
	start := time.Now()
	out := BatchResult{Kind: it.kind}
	fail := func(msg string) BatchResult {
		s.errors.Add(1)
		out.Error = msg
		return out
	}
	if it.errMsg != "" {
		return fail(it.errMsg)
	}
	it.res.opts.Trace = gdb.NewQueryTrace()
	ans, err := s.execQuery(ctx, it.kind, &bq.QueryRequest, it.res, start)
	if err != nil {
		_, _, msg := s.classifyQueryErr(err)
		return fail(msg)
	}
	s.finishQuery(it.kind, &bq.QueryRequest, it.res, ans, start)
	out.Skyline, out.TopK, out.Range = ans.sky, ans.tk, ans.rng
	return out
}
