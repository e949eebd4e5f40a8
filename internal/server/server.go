package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/lru"
	"skygraph/internal/measure"
	"skygraph/internal/obs"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
	"skygraph/internal/wal"
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the answer cache's LRU capacity (entries; < 1
	// disables). Each query answer occupies one entry.
	CacheSize int
	// DefaultTimeout bounds a query when the request does not ask for a
	// timeout (0 = no default).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (0 = no clamp).
	MaxTimeout time.Duration
	// DefaultEval bounds the exact engines when the request does not
	// carry its own options.
	DefaultEval measure.Options
	// MaxBatch caps the number of queries in one /query/batch request
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// SlowQueryThreshold emits a structured log line for every query
	// whose server-side wall time reaches it (0 = disabled). Batch items
	// are judged individually.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one JSON-encoded SlowQueryRecord per line
	// (nil = os.Stderr). Writes are serialized by the server.
	SlowQueryLog io.Writer
	// Durable is the persistence engine backing db, when the daemon runs
	// with -data-dir (nil = in-memory only). The server does not drive
	// it — mutations are write-ahead logged by the database itself, and
	// snapshots/shutdown are the daemon's job — it only surfaces the
	// layer's counters in /stats and /metrics and fails mutations whose
	// WAL append fails.
	Durable *gdb.Durable
	// DegradeAfter is K: after K consecutive transient persist failures
	// the daemon enters degraded-readonly — queries keep serving from
	// memory, mutations answer 503 + Retry-After while a background
	// probe exercises the WAL until it heals (0 = 3). Only meaningful
	// with Durable.
	DegradeAfter int
	// ProbeEvery is the write-probe interval while degraded (0 = 500ms).
	ProbeEvery time.Duration
	// RetryAfter is the delay hinted to clients on 429/503 answers via
	// the Retry-After header and retry_after_ms body field (0 = 1s).
	RetryAfter time.Duration
	// MaxInflightQueries caps concurrently executing query, batch and
	// warm requests; excess requests are shed with 429 + Retry-After
	// before any decoding or evaluation (0 = unlimited). It is the
	// server's one admission gate: an admitted request always evaluates.
	MaxInflightQueries int
	// FaultAdmin mounts GET/POST /admin/fault for configuring the
	// failpoint registry over HTTP. Test and chaos tooling only — never
	// enable it on a daemon you care about.
	FaultAdmin bool
}

// idemCapacity is the number of recently acknowledged mutation keys
// remembered for replay.
const idemCapacity = 4096

// Server serves similarity queries over a sharded graph database with an
// answer cache in front of pair evaluation. Create with New, mount via
// Handler.
type Server struct {
	db     *gdb.Sharded
	cache  *Cache
	cfg    Config
	start  time.Time
	met    *metrics
	health *health

	slowMu sync.Mutex
	slowW  io.Writer

	flightMu sync.Mutex
	flight   map[cacheKey]*flightCall

	idemMu sync.Mutex
	idem   *lru.Cache[string, idemRecord]
	// idemProg tracks, per insert key, the names proven applied under
	// that key — noted live as each graph commits and seeded from the
	// WAL's recovered keys at startup. It is the evidence that lets a
	// keyed retry skip its own earlier work (including completing a
	// partially applied multi-graph insert) without ever masking a
	// genuine name conflict. Values are copy-on-write: readers get a
	// snapshot map that is never mutated.
	idemProg *lru.Cache[string, map[string]bool]

	inflightQ       atomic.Int64
	queries         atomic.Uint64
	batches         atomic.Uint64
	inserts         atomic.Uint64
	deletes         atomic.Uint64
	errors          atomic.Uint64
	timeouts        atomic.Uint64
	shed            atomic.Uint64
	degradedRejects atomic.Uint64
	// work totals every fresh evaluation's counters (table builds and
	// ranked scans, as they finish) for /stats.
	work workTotals
}

// workTotals is the server-lifetime sum of gdb.Work. A mutex rather
// than per-field atomics: it moves once per table build or ranked scan,
// never on a cache hit, and load returns a consistent snapshot.
type workTotals struct {
	mu sync.Mutex
	w  gdb.Work
}

func (t *workTotals) add(w gdb.Work) {
	t.mu.Lock()
	t.w.Add(w)
	t.mu.Unlock()
}

func (t *workTotals) load() gdb.Work {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w
}

// New returns a Server over db.
func New(db *gdb.Sharded, cfg Config) *Server {
	s := &Server{
		db:     db,
		cache:  NewCache(cfg.CacheSize),
		cfg:    cfg,
		start:  time.Now(),
		slowW:  cfg.SlowQueryLog,
		flight: make(map[cacheKey]*flightCall),
	}
	if s.slowW == nil {
		s.slowW = os.Stderr
	}
	s.idem = lru.New[string, idemRecord](idemCapacity)
	s.idemProg = lru.New[string, map[string]bool](idemCapacity)
	s.seedIdempotency()
	s.health = newHealth(cfg.Durable, cfg.DegradeAfter, cfg.ProbeEvery)
	s.met = newMetrics(s)
	return s
}

// seedIdempotency loads the WAL's recovered idempotency keys into the
// replay bookkeeping, so keyed retries whose acks died with the
// previous process are answered from durable evidence: recovered
// delete keys become replayable acks outright (a delete is complete by
// construction), recovered insert keys become per-name progress (a
// multi-graph insert may have been cut short mid-batch, so the retry
// must be able to complete the remainder, not just replay). Keys the
// WAL does not know — reclaimed by a snapshot, or never accepted —
// get no special treatment, which is the point.
func (s *Server) seedIdempotency() {
	if s.cfg.Durable == nil {
		return
	}
	rk := s.cfg.Durable.RecoveredKeys()
	gen := s.db.Generation()
	for key, name := range rk.Deletes {
		s.idemRemember("delete", key, idemRecord{del: &DeleteResponse{Deleted: name, Generation: gen}})
	}
	for key, names := range rk.Inserts {
		done := make(map[string]bool, len(names))
		for _, n := range names {
			done[n] = true
		}
		s.idemProg.Put(key, done)
	}
}

// Close stops the server's background work (the health probe loop).
// The Server must not serve requests after Close; safe to call on a
// server without persistence, and idempotent.
func (s *Server) Close() { s.health.Close() }

// HealthState reports the write-path health (always serving for an
// in-memory daemon).
func (s *Server) HealthState() HealthState { return s.health.State() }

// Metrics exposes the server's metric registry (mounted at GET /metrics
// by Handler; for tests and for embedding extra collectors).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Cache exposes the server's answer cache (read-mostly; for tests and
// stats tooling).
func (s *Server) Cache() *Cache { return s.cache }

// DB exposes the server's sharded database.
func (s *Server) DB() *gdb.Sharded { return s.db }

// Handler returns the HTTP routing for the API. Serving routes are
// wrapped with per-endpoint request/latency/inflight metrics; the
// health probes and the metrics scrape itself stay uninstrumented (they
// are polled constantly and must never count as, or contend with,
// traffic).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /query/skyline", s.queryHandler("skyline"))
	s.route(mux, "POST /query/topk", s.queryHandler("topk"))
	s.route(mux, "POST /query/range", s.queryHandler("range"))
	s.route(mux, "POST /query/batch", s.handleBatch)
	s.route(mux, "POST /cache/warm", s.handleWarm)
	s.route(mux, "GET /graphs", s.handleList)
	s.route(mux, "POST /graphs", s.handleInsert)
	s.route(mux, "GET /graphs/{name}", s.handleGet)
	s.route(mux, "DELETE /graphs/{name}", s.handleDelete)
	s.route(mux, "GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.FaultAdmin {
		mux.HandleFunc("GET /admin/fault", s.handleFaultGet)
		mux.HandleFunc("POST /admin/fault", s.handleFaultSet)
	}
	return mux
}

// handleReady answers GET /readyz: 200 once the server exists — the
// database was loaded (and, for a durable daemon, recovered) before
// construction — and 503 while the write path is degraded-readonly:
// load balancers that route mutations should drain a degraded daemon,
// which still answers queries for clients that talk to it directly.
// The health state rides along in every answer.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state := s.health.State()
	if state == HealthDegraded {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"health": state.String(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "health": state.String()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// classForCode maps a status code to the default error class; paths
// that know better (degraded, transient, corrupt) pass their class to
// writeErrorClass directly.
func classForCode(code int) string {
	switch code {
	case http.StatusBadRequest:
		return ClassBadRequest
	case http.StatusNotFound:
		return ClassNotFound
	case http.StatusConflict:
		return ClassConflict
	case http.StatusTooManyRequests:
		return ClassOverloaded
	case http.StatusGatewayTimeout:
		return ClassTimeout
	default:
		return ClassInternal
	}
}

// retryAfter is the delay hinted to clients on shed/degraded answers.
func (s *Server) retryAfter() time.Duration {
	if s.cfg.RetryAfter > 0 {
		return s.cfg.RetryAfter
	}
	return time.Second
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeErrorClass(w, code, classForCode(code), 0, nil, format, args...)
}

// writeErrorClass is the one error writer: it counts the error and
// writes an ErrorResponse with an explicit class and, when retryAfter >
// 0, the Retry-After header (whole seconds, rounded up per RFC 9110)
// plus its exact form in the body. partial, when set, reports what a
// failed insert applied before it failed.
func (s *Server) writeErrorClass(w http.ResponseWriter, code int, class string, retryAfter time.Duration, partial *PartialInsert, format string, args ...any) {
	s.errors.Add(1)
	resp := ErrorResponse{Error: fmt.Sprintf(format, args...), Class: class, PartialInsert: partial}
	if retryAfter > 0 {
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
		resp.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, code, resp)
}

const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolved is a validated query request with its wire fields resolved
// into engine values.
type resolved struct {
	q     *graph.Graph
	qh    string // canonical query hash, computed once per request
	basis []measure.Measure
	m     measure.Measure // ranking measure (topk/range)
	opts  gdb.QueryOptions
	// key is the request's cache key. Its path is the request's build:
	// pruned tables for a skyline request that does not ask for the full
	// table (all), complete tables for one that does, the ranked scan
	// for top-k and range. Each request reads only its own path's
	// entries.
	key cacheKey
}

// resolveQuery validates a request of the given kind ("skyline", "topk"
// or "range") and resolves it. Every measure a request can name is a
// built-in (measure.Rankable and measure.Boundable), so every basis can
// be pruned and every ranking measure can run the ranked scan.
func (s *Server) resolveQuery(kind string, req *QueryRequest) (resolved, error) {
	var res resolved
	switch kind {
	case "skyline":
	case "topk":
		if req.K < 1 {
			return res, errors.New("k must be >= 1")
		}
	case "range":
		if req.Radius == nil {
			return res, errors.New("missing radius")
		}
		if *req.Radius < 0 {
			return res, errors.New("radius must be >= 0")
		}
	default:
		return res, fmt.Errorf("unknown query kind %q (want skyline, topk or range)", kind)
	}
	if req.Graph == nil {
		return res, errors.New("missing query graph")
	}
	if err := req.Graph.Validate(); err != nil {
		return res, fmt.Errorf("invalid query graph: %w", err)
	}
	res.q = req.Graph
	res.qh = graph.QueryHash(res.q)

	basis, err := measure.BasisByNames(req.Basis)
	if err != nil {
		return res, err
	}
	if kind != "skyline" {
		name := req.Measure
		if name == "" {
			name = "DistEd"
		}
		m, err := measure.ByName(name)
		if err != nil {
			return res, err
		}
		res.m = m
	}
	res.basis = basis

	// Workers stays 0: VectorTables spreads GOMAXPROCS across the shards.
	// The canonical query hash rides along so the score memo never
	// re-canonicalizes.
	res.opts = gdb.QueryOptions{Basis: basis, Eval: s.mergeEval(req.Eval), QueryHash: res.qh}
	res.key = cacheKey{path: kind, qh: res.qh, eval: res.opts.Eval}
	switch kind {
	case "skyline":
		res.key.path = "pruned"
		if req.All {
			res.key.path = "all"
		}
		res.key.measures = strings.Join(measure.BasisNames(basis), ",")
	case "topk":
		res.key.measures, res.key.arg = res.m.Name(), float64(req.K)
	case "range":
		res.key.measures, res.key.arg = res.m.Name(), *req.Radius
	}
	// Every query is traced — the per-pair bookkeeping is noise next to
	// engine work, and the cascade-stage metrics want the numbers whether
	// or not the client asked to see them.
	res.opts.Trace = gdb.NewQueryTrace()
	return res, nil
}

// mergeEval overlays request engine budgets on the server defaults,
// per field: zero keeps the server default, a negative value explicitly
// requests unbounded exact computation.
func (s *Server) mergeEval(req *measure.Options) measure.Options {
	eval := s.cfg.DefaultEval
	if req == nil {
		return eval
	}
	merge := func(dst *int64, v int64) {
		switch {
		case v < 0:
			*dst = 0
		case v > 0:
			*dst = v
		}
	}
	merge(&eval.GEDMaxNodes, req.GEDMaxNodes)
	merge(&eval.MCSMaxNodes, req.MCSMaxNodes)
	return eval
}

// timeout picks the effective deadline for a request: the request's own
// timeout (clamped to MaxTimeout) when given, else the server default.
// Zero means no deadline.
func (s *Server) timeout(req *QueryRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > 0 && s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// headerTimeoutMS reads the client's propagated deadline from the
// X-Skygraph-Timeout-Ms header (0 when absent or malformed). It fills
// the body's timeout_ms only when the body carries none — an explicit
// body timeout is the more specific intent.
func headerTimeoutMS(r *http.Request) int {
	v := r.Header.Get(TimeoutHeader)
	if v == "" {
		return 0
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0
	}
	return ms
}

// admitQuery is the front-door load shed: when MaxInflightQueries is
// set and that many query/batch/warm requests are already executing,
// the request is refused with 429 + Retry-After before any decoding.
// Returns false when shed; on true the caller must releaseQuery.
func (s *Server) admitQuery(w http.ResponseWriter) bool {
	if s.cfg.MaxInflightQueries <= 0 {
		return true
	}
	if s.inflightQ.Add(1) > int64(s.cfg.MaxInflightQueries) {
		s.inflightQ.Add(-1)
		s.shed.Add(1)
		s.writeErrorClass(w, http.StatusTooManyRequests, ClassOverloaded, s.retryAfter(), nil,
			"server is shedding load: %d queries already in flight", s.cfg.MaxInflightQueries)
		return false
	}
	return true
}

func (s *Server) releaseQuery() {
	if s.cfg.MaxInflightQueries > 0 {
		s.inflightQ.Add(-1)
	}
}

// flightCall is one in-progress cache fill that concurrent identical
// requests wait on instead of recomputing.
type flightCall struct {
	done chan struct{} // closed once e and err are set
	e    *cacheEntry
	err  error
}

// coalesce is the one cache → flight → build loop behind every cached
// answer, skyline tables and merged ranked answers alike, for a request
// that read generations gens. It serves the entry under key from the
// cache when it is servable at gens. Otherwise concurrent identical
// requests coalesce on one flight leader, which re-checks the cache,
// runs build, adds the build's work to the server totals and publishes
// the entry under key when build says to store it. Followers report a
// hit: they caused no evaluation. A follower takes the leader's entry
// only when it too is servable at the follower's gens; one whose leader
// built at another generation, or failed — e.g. the leader's own
// shorter timeout fired — retries under its own deadline instead.
func (s *Server) coalesce(ctx context.Context, key cacheKey, gens []uint64, build func() (*cacheEntry, bool, error)) (e *cacheEntry, hit bool, err error) {
	var c *flightCall
	for {
		if e, ok := s.cache.lookup(key, gens, false); ok {
			return e, true, nil
		}
		s.flightMu.Lock()
		leader, inflight := s.flight[key]
		if !inflight {
			c = &flightCall{done: make(chan struct{})}
			s.flight[key] = c
			s.flightMu.Unlock()
			break
		}
		s.flightMu.Unlock()
		select {
		case <-leader.done:
			if leader.err == nil && servable(leader.e, gens) {
				return leader.e, true, nil
			}
			// The leader failed for its own reasons, or answered another
			// generation; try again ourselves.
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	defer func() {
		c.e, c.err = e, err
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(c.done)
	}()

	// A previous leader may have published between our miss and the
	// takeover; its flight removal follows its put, so re-checking here
	// closes the window. The re-check is quiet: the miss was counted.
	if e, ok := s.cache.lookup(key, gens, true); ok {
		return e, true, nil
	}
	e, store, err := build()
	if err != nil {
		return nil, false, err
	}
	s.work.add(e.work)
	if store {
		s.cache.put(key, e)
	}
	return e, false, nil
}

// entry returns the whole answer of a resolved query through coalesce:
// the cached entry when one is servable at the generations the request
// read, else one build — every shard's vector table for a skyline
// request, the ranked scan's merged items for top-k and range
// (ranked.go). hit reports that the request caused no evaluation.
func (s *Server) entry(ctx context.Context, res resolved) (e *cacheEntry, hit bool, err error) {
	gens := s.db.Generations()
	return s.coalesce(ctx, res.key, gens, func() (*cacheEntry, bool, error) {
		if res.m != nil {
			return s.buildRanked(ctx, res, gens)
		}
		return s.buildTables(ctx, res)
	})
}

// buildTables evaluates a skyline request on every shard at once.
func (s *Server) buildTables(ctx context.Context, res resolved) (*cacheEntry, bool, error) {
	opts := res.opts
	opts.Prune = res.key.path == "pruned"
	tables, err := s.db.VectorTables(ctx, res.q, opts)
	if err != nil {
		return nil, false, err
	}
	// Each table records the generation of the snapshot it was built
	// from, whatever the request read, so storing the entry is always
	// sound. Pruned tables carry their maintenance lineage, so a later
	// mutation can upgrade the entry in place (delta.go) instead of
	// invalidating it; complete tables carry none, and the next mutation
	// drops them.
	e := &cacheEntry{gens: make([]uint64, len(tables)), tables: tables}
	for i, t := range tables {
		e.gens[i] = t.Generation
		e.inexact += t.Inexact
		e.work.Add(t.Work)
	}
	if opts.Prune {
		e.lin = &lineage{q: res.q, qsig: measure.NewSignature(res.q), basis: res.basis}
	}
	return e, true, nil
}

// classifyQueryErr maps an evaluation error to an HTTP status, error
// class and message, bumping the matching counters. Shared by the
// single-query endpoints, the per-item error reporting of /query/batch
// and /cache/warm.
func (s *Server) classifyQueryErr(err error) (int, string, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout, ClassTimeout, "query timed out"
	case errors.Is(err, context.Canceled):
		return http.StatusBadRequest, ClassCanceled, "query canceled"
	default:
		return http.StatusInternalServerError, ClassInternal, err.Error()
	}
}

// queryStats assembles the wire stats of one answer: a hit (from the
// cache or a coalesced leader) counts every shard as hit and reports no
// work, a fresh build reports what it cost and no shard hit.
func queryStats(e *cacheEntry, hit bool, start time.Time) QueryStats {
	qs := QueryStats{
		Work:         e.work,
		Inexact:      e.inexact,
		DeltaPatched: e.deltas,
		Shards:       len(e.gens),
		DurationMS:   float64(time.Since(start).Microseconds()) / 1000,
	}
	if hit {
		qs.Work, qs.CacheHit, qs.ShardHits = gdb.Work{}, true, len(e.gens)
	}
	return qs
}

// answer bundles the per-kind response of one executed query; exactly
// one field is set.
type answer struct {
	sky *SkylineResponse
	tk  *TopKResponse
	rng *RangeResponse
}

// body returns whichever response is set, for JSON encoding.
func (a answer) body() any {
	switch {
	case a.sky != nil:
		return a.sky
	case a.tk != nil:
		return a.tk
	default:
		return a.rng
	}
}

// stats returns whichever response's stats are set.
func (a answer) stats() QueryStats {
	switch {
	case a.sky != nil:
		return a.sky.Stats
	case a.tk != nil:
		return a.tk.Stats
	case a.rng != nil:
		return a.rng.Stats
	}
	return QueryStats{}
}

// setTrace attaches the per-stage trace to whichever response is set.
func (a answer) setTrace(stages []gdb.TraceStage) {
	switch {
	case a.sky != nil:
		a.sky.Trace = stages
	case a.tk != nil:
		a.tk.Trace = stages
	case a.rng != nil:
		a.rng.Trace = stages
	}
}

// finishQuery is the post-answer bookkeeping shared by the dedicated
// endpoints and each batch item: feed the per-kind and per-stage
// metrics, attach the trace to the response when the client asked for
// it, and emit the slow-query log line when the query crossed the
// threshold.
func (s *Server) finishQuery(kind string, req *QueryRequest, res resolved, ans answer, start time.Time) {
	stages := res.opts.Trace.Stages()
	qs := ans.stats()
	s.met.observeQuery(kind, qs, stages)
	if req.Trace {
		ans.setTrace(stages)
	}
	s.logSlow(kind, qs, stages, time.Since(start))
}

// logSlow writes one SlowQueryRecord line when elapsed reaches the
// configured threshold.
func (s *Server) logSlow(kind string, qs QueryStats, stages []gdb.TraceStage, elapsed time.Duration) {
	if s.cfg.SlowQueryThreshold <= 0 || elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	s.met.slowQueries.Inc()
	rec := SlowQueryRecord{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Kind:       kind,
		DurationMS: float64(elapsed.Microseconds()) / 1000,
		Stats:      qs,
		Trace:      stages,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.slowMu.Lock()
	_, _ = s.slowW.Write(b)
	s.slowMu.Unlock()
}

// execQuery executes one resolved query of the given kind end to end:
// its whole answer (entry), shaped into the kind's response — the
// merged items for topk/range, the skyline merge of the per-shard tables
// for skyline. Shared by the dedicated endpoints and /query/batch.
func (s *Server) execQuery(ctx context.Context, kind string, req *QueryRequest, res resolved, start time.Time) (answer, error) {
	e, hit, err := s.entry(ctx, res)
	if err != nil {
		return answer{}, err
	}
	stats := queryStats(e, hit, start)
	switch kind {
	case "topk":
		return answer{tk: &TopKResponse{Measure: res.m.Name(), K: req.K, Items: toItemJSON(e.items), Stats: stats}}, nil
	case "range":
		return answer{rng: &RangeResponse{Measure: res.m.Name(), Radius: *req.Radius, Items: toItemJSON(e.items), Stats: stats}}, nil
	}
	// Answer shaping from the per-shard tables is the merge stage.
	mstart := time.Now()
	resp := &SkylineResponse{
		Basis:   measure.BasisNames(res.basis),
		Skyline: toPointJSON(s.db.MergeSkyline(e.tables, nil)),
		Stats:   stats,
	}
	if req.All {
		resp.All = toPointJSON(s.db.MergeTables(e.tables))
	}
	rows := 0
	for _, t := range e.tables {
		rows += len(t.Points)
	}
	res.opts.Trace.Observe(gdb.StageMerge, time.Since(mstart), rows, 0)
	return answer{sky: resp}, nil
}

// runQuery wraps the shared decode / resolve / timeout / execute
// plumbing of the three query endpoints.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, kind string) {
	if !s.admitQuery(w) {
		return
	}
	defer s.releaseQuery()
	s.queries.Add(1)
	start := time.Now()
	var req QueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = headerTimeoutMS(r)
	}
	res, err := s.resolveQuery(kind, &req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	if d := s.timeout(&req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	ans, err := s.execQuery(ctx, kind, &req, res, start)
	if err != nil {
		code, class, msg := s.classifyQueryErr(err)
		s.writeErrorClass(w, code, class, 0, nil, "%s", msg)
		return
	}
	s.finishQuery(kind, &req, res, ans, start)
	writeJSON(w, http.StatusOK, ans.body())
}

// queryHandler serves the dedicated endpoint of one query kind.
func (s *Server) queryHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.runQuery(w, r, kind) }
}

func toPointJSON(pts []skyline.Point) []PointJSON {
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{ID: p.ID, Vec: p.Vec}
	}
	return out
}

func toItemJSON(items []topk.Item) []ItemJSON {
	out := make([]ItemJSON, len(items))
	for i, it := range items {
		out[i] = ItemJSON{ID: it.ID, Score: it.Score}
	}
	return out
}

// idemRecord remembers one acknowledged keyed mutation for replay;
// exactly one field is set.
type idemRecord struct {
	insert *InsertResponse
	del    *DeleteResponse
}

// idemLookup fetches the recorded ack of a keyed mutation. Keys are
// namespaced by verb so an insert key can never replay a delete.
func (s *Server) idemLookup(verb, key string) (idemRecord, bool) {
	if key == "" {
		return idemRecord{}, false
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	return s.idem.Get(verb + ":" + key)
}

func (s *Server) idemRemember(verb, key string, rec idemRecord) {
	if key == "" {
		return
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	s.idem.Put(verb+":"+key, rec)
}

// insertProgress returns the names proven applied under the given
// insert key (nil for unkeyed or unknown keys). The returned map is an
// immutable snapshot — noteInsertProgress replaces rather than mutates
// it, so readers race with nothing.
func (s *Server) insertProgress(key string) map[string]bool {
	if key == "" {
		return nil
	}
	done, _ := s.idemProg.Get(key)
	return done
}

// noteInsertProgress records that name committed under the given
// insert key (copy-on-write, see insertProgress).
func (s *Server) noteInsertProgress(key, name string) {
	if key == "" {
		return
	}
	s.idemProg.Update(key, func(old map[string]bool, _ bool) map[string]bool {
		next := make(map[string]bool, len(old)+1)
		for n := range old {
			next[n] = true
		}
		next[name] = true
		return next
	})
}

// rejectDegraded refuses a mutation up front while the write path is
// degraded-readonly (it could only fail), with the class and
// Retry-After hint the retrying client keys on. Reports whether the
// request was rejected.
func (s *Server) rejectDegraded(w http.ResponseWriter) bool {
	if !s.health.ReadOnly() {
		return false
	}
	s.degradedRejects.Add(1)
	s.writeErrorClass(w, http.StatusServiceUnavailable, ClassDegraded, s.retryAfter(), nil,
		"store is degraded-readonly: mutation refused while the write path heals")
	return true
}

// mutationError answers a failed mutation. Name collisions stay 409;
// persist failures split into transient (503 + Retry-After — the kind
// a broken-then-fixed disk produces; feeds the health state machine)
// and corruption-class (500, terminal: probing cannot heal a corrupt
// store, and retrying cannot help). partial, set on insert failures,
// reports the progress made before the failure.
func (s *Server) mutationError(w http.ResponseWriter, err error, partial *PartialInsert) {
	code, class := http.StatusConflict, ClassConflict
	var retry time.Duration
	if errors.Is(err, gdb.ErrNotPersisted) {
		if errors.Is(err, wal.ErrCorrupt) {
			code, class = http.StatusInternalServerError, ClassCorrupt
		} else {
			s.health.NoteTransientFailure(err)
			code, class, retry = http.StatusServiceUnavailable, ClassTransient, s.retryAfter()
		}
	}
	s.writeErrorClass(w, code, class, retry, partial, "%v", err)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.inserts.Add(1)
	var req InsertRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var gs []*graph.Graph
	switch {
	case req.Graph != nil && req.Graphs != nil:
		s.writeError(w, http.StatusBadRequest, "set exactly one of graph, graphs")
		return
	case req.Graph != nil:
		gs = []*graph.Graph{req.Graph}
	case len(req.Graphs) > 0:
		gs = req.Graphs
	default:
		s.writeError(w, http.StatusBadRequest, "missing graph")
		return
	}
	// Validate everything up front so malformed payloads are a clean 400
	// with nothing inserted; only name collisions can fail past here.
	for i, g := range gs {
		if g == nil {
			s.writeError(w, http.StatusBadRequest, "graph %d is null", i)
			return
		}
		if g.Name() == "" {
			s.writeError(w, http.StatusBadRequest, "graph has no name")
			return
		}
		if err := g.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid graph %q: %v", g.Name(), err)
			return
		}
	}
	key := r.Header.Get(IdempotencyHeader)
	if key == "" {
		key = req.IdempotencyKey
	}
	// Replay before anything else — even degraded, serving the recorded
	// ack of an already-persisted mutation is a read.
	if rec, ok := s.idemLookup("insert", key); ok && rec.insert != nil {
		resp := *rec.insert
		resp.Replayed = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if s.rejectDegraded(w) {
		return
	}
	// done is the evidence this key was accepted before: names noted by
	// this process on commit, or recovered from the WAL (keys ride
	// along in the records) after a restart ate the ack. Those names
	// are skipped rather than re-inserted, which both replays lost
	// acks and lets a retry of a partially applied multi-graph insert
	// complete the remainder instead of 409-ing on its own earlier
	// work. Without evidence nothing is skipped: a keyed insert of a
	// name someone else created is a genuine 409 conflict.
	done := s.insertProgress(key)
	inserted := make([]string, 0, len(gs))
	var skipped []string
	for _, g := range gs {
		if done[g.Name()] {
			skipped = append(skipped, g.Name())
			continue
		}
		ack, err := s.db.Insert(g, key)
		if err != nil {
			// Partial inserts stand (each bumped its shard's generation,
			// and each already routed its cache delta) and are reported;
			// the request is not recorded for replay, but the applied
			// names are noted under the key, so a keyed retry re-attempts
			// exactly the remainder.
			s.mutationError(w, err, &PartialInsert{Inserted: inserted, Generation: s.db.Generation()})
			return
		}
		s.health.NoteSuccess()
		s.noteInsertProgress(key, g.Name())
		inserted = append(inserted, g.Name())
		// Route the delta per applied insert, not per request: each
		// mutation advances its shard by exactly one generation, which is
		// the step the upgrade proofs are built on.
		s.deltaInsert(g, ack.Shard, ack.Gen)
	}
	// Inserted reports every name the request asked for that is now
	// applied under this key — freshly inserted or skipped as already
	// done — so a completed retry acks the whole request; Replayed
	// marks the pure-replay case (nothing newly applied).
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.Name()
	}
	resp := InsertResponse{
		Inserted:   names,
		Skipped:    skipped,
		Generation: s.db.Generation(),
		Replayed:   len(inserted) == 0 && len(skipped) > 0,
	}
	s.idemRemember("insert", key, idemRecord{insert: &resp})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.deletes.Add(1)
	name := r.PathValue("name")
	key := r.Header.Get(IdempotencyHeader)
	if rec, ok := s.idemLookup("delete", key); ok && rec.del != nil {
		resp := *rec.del
		resp.Replayed = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if s.rejectDegraded(w) {
		return
	}
	ack, err := s.db.Delete(name, key)
	if err != nil {
		// The write-ahead append failed: the graph is still there and the
		// mutation must not be acked.
		s.mutationError(w, err, nil)
		return
	}
	if !ack.Existed {
		// A keyed delete whose ack was lost is answered by the replay
		// table above — recovery seeds it from the keys in the WAL — so
		// an absent graph here means this key never deleted anything:
		// 404, keyed or not.
		s.writeError(w, http.StatusNotFound, "no graph named %q", name)
		return
	}
	s.health.NoteSuccess()
	s.deltaDelete(name, ack.Shard, ack.Gen)
	resp := DeleteResponse{Deleted: name, Generation: s.db.Generation()}
	s.idemRemember("delete", key, idemRecord{del: &resp})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, ok := s.db.Get(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no graph named %q", name)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Names: s.db.Names(), Generation: s.db.Generation()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	dbs := s.db.Stats()
	shards := make([]ShardInfo, s.db.NumShards())
	for i := range shards {
		shards[i] = ShardInfo{
			Index:      i,
			Graphs:     s.db.Shard(i).Len(),
			Generation: s.db.ShardGeneration(i),
		}
	}
	var memo *gdb.MemoStats
	if m := s.db.Memo(); m != nil {
		ms := m.Stats()
		memo = &ms
	}
	var durability *DurabilityInfo
	if d := s.cfg.Durable; d != nil {
		ds := d.Stats()
		durability = &DurabilityInfo{
			Dir:                     ds.Dir,
			Sync:                    ds.Sync,
			WALSegments:             ds.WAL.Segments,
			WALSizeBytes:            ds.WAL.SizeBytes,
			WALLastLSN:              ds.WAL.LastLSN,
			WALAppends:              ds.WAL.Appends,
			WALFsyncs:               ds.WAL.Fsyncs,
			Snapshots:               ds.Snapshots,
			LastSnapLSN:             ds.LastSnapLSN,
			LastSnapGraphs:          ds.LastSnapGraphs,
			RecoverySnapshotGraphs:  ds.Recovery.SnapshotGraphs,
			RecoveryReplayedRecords: ds.Recovery.ReplayedRecords,
			RecoveryRepairedBytes:   ds.Recovery.RepairedBytes,
			RecoveryDroppedSegments: ds.Recovery.DroppedSegments,
			RecoverySeconds:         ds.Recovery.Duration.Seconds(),
		}
	}
	var faultBlock *FaultInfo
	if pts := fault.Snapshot(); len(pts) > 0 {
		faultBlock = &FaultInfo{Armed: fault.Armed(), Fires: fault.TotalFires(), Points: pts}
	}
	work := s.work.load()
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generation:    s.db.Generation(),
		DB: DBStats{
			Graphs:       dbs.Graphs,
			Vertices:     dbs.Vertices,
			Edges:        dbs.Edges,
			VertexLabels: dbs.VertexLabels,
			EdgeLabels:   dbs.EdgeLabels,
			MinSize:      dbs.MinSize,
			MaxSize:      dbs.MaxSize,
		},
		Shards:     shards,
		Cache:      s.cache.Stats(),
		Memo:       memo,
		Durability: durability,
		Health:     s.health.Info(),
		Fault:      faultBlock,
		Requests: ReqStats{
			Queries:          s.queries.Load(),
			Batches:          s.batches.Load(),
			Inserts:          s.inserts.Load(),
			Deletes:          s.deletes.Load(),
			Errors:           s.errors.Load(),
			PairEvals:        uint64(work.Evaluated),
			PairsPruned:      uint64(work.Pruned),
			MemoHits:         uint64(work.MemoHits),
			MemoMisses:       uint64(work.MemoMisses),
			QueryTimeouts:    s.timeouts.Load(),
			LoadShed:         s.shed.Load(),
			DegradedRejected: s.degradedRejects.Load(),
		},
		Runtime: runtimeStats(),
		Build:   buildInfo(),
	})
}

// runtimeStats snapshots the Go runtime for /stats.
func runtimeStats() RuntimeStats {
	ms := readMemStats()
	return RuntimeStats{
		Goroutines:    runtime.NumGoroutine(),
		HeapAllocByte: ms.HeapAlloc,
		HeapSysBytes:  ms.HeapSys,
		GCCycles:      ms.NumGC,
		GCPauseMS:     float64(ms.PauseTotalNs) / 1e6,
	}
}

// handleWarm answers POST /cache/warm: build (and cache) the skyline
// answers of the given query graphs ahead of traffic — exactly the
// entry the same skyline request would build and read: pruned tables,
// or complete ones for an item that sets "all". Queries run
// sequentially — warming is maintenance, not serving, so it should
// trickle rather than flood; each item still evaluates its shards in
// parallel like a normal cold query. Every failed item counts as a
// request error, as a failed batch item does.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if !s.admitQuery(w) {
		return
	}
	defer s.releaseQuery()
	start := time.Now()
	var req WarmRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = headerTimeoutMS(r)
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty warm request")
		return
	}
	// Same size cap as /query/batch: every warm item is a table build
	// across all shards, as a cold skyline request is.
	if len(req.Queries) > s.maxBatch() {
		s.writeError(w, http.StatusBadRequest, "warm request of %d queries exceeds the limit of %d", len(req.Queries), s.maxBatch())
		return
	}
	ctx := r.Context()
	if d := s.timeout(&QueryRequest{TimeoutMS: req.TimeoutMS}); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	results := make([]WarmResult, len(req.Queries))
	for i := range req.Queries {
		res, err := s.resolveQuery("skyline", &req.Queries[i])
		var e *cacheEntry
		var hit bool
		if err == nil {
			e, hit, err = s.entry(ctx, res)
		}
		if err != nil {
			// A resolve error keeps its message; an evaluation error (a
			// timeout, say) reads as the query endpoints report it.
			_, _, msg := s.classifyQueryErr(err)
			results[i] = WarmResult{Error: msg}
			s.errors.Add(1)
			continue
		}
		qs := queryStats(e, hit, start)
		results[i] = WarmResult{Evaluated: qs.Evaluated, ShardHits: qs.ShardHits}
	}
	writeJSON(w, http.StatusOK, WarmResponse{
		Results:    results,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}
