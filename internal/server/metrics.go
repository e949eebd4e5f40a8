package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/obs"
)

// metrics is the server's obs registry plus the handles the hot paths
// write to. Request-scoped series (per-endpoint latency, per-kind
// cascade counters) are fed by the handlers; occupancy numbers another
// subsystem already maintains (cache, shards, memo, Go
// runtime) are registered as render-time callbacks so /metrics always
// reports the live value without a second set of counters to keep in
// sync.
type metrics struct {
	reg *obs.Registry

	// HTTP layer, labelled by route pattern.
	httpRequests obs.CounterVec // endpoint, code
	httpLatency  obs.HistogramVec
	httpInflight obs.GaugeVec

	// Query cascade, labelled by query kind (skyline/topk/range).
	// queryWork[i] is the family of workFamilies[i].
	queryLatency  obs.HistogramVec
	queryWork     [len(workFamilies)]obs.CounterVec
	queryCacheHit obs.CounterVec

	// Cascade stages, labelled by trace stage name.
	stageSeconds obs.CounterVec
	stagePairs   obs.CounterVec
	stagePruned  obs.CounterVec

	slowQueries obs.Counter
}

// workFamilies is the one ordered table the per-kind query-work families
// are registered and fed from: one row per gdb.Work counter. Every
// answered query (batch items included) adds its wire stats' Work, so a
// cached answer adds zeros.
var workFamilies = [...]struct {
	name, help string
	get        func(*gdb.Work) int
}{
	{"skygraph_query_pairs_evaluated_total", "Exact pair evaluations caused by queries, by query kind.",
		func(w *gdb.Work) int { return w.Evaluated }},
	{"skygraph_query_pairs_pruned_total", "Pairs excluded without exact evaluation, by query kind.",
		func(w *gdb.Work) int { return w.Pruned }},
	{"skygraph_query_memo_hits_total", "Score-memo lookups that replayed a recorded result, by query kind.",
		func(w *gdb.Work) int { return w.MemoHits }},
	{"skygraph_query_memo_misses_total", "Score-memo lookups that missed, by query kind.",
		func(w *gdb.Work) int { return w.MemoMisses }},
}

// newMetrics builds the registry for one Server. Call once, after the
// database (shards, memo) is fully assembled — the
// callback metrics bind to what exists now.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.httpRequests = reg.CounterVec("skygraph_http_requests_total",
		"HTTP requests served, by route and status code.", "endpoint", "code")
	m.httpLatency = reg.HistogramVec("skygraph_http_request_duration_seconds",
		"HTTP request latency by route.", nil, "endpoint")
	m.httpInflight = reg.GaugeVec("skygraph_http_inflight_requests",
		"HTTP requests currently being served, by route.", "endpoint")

	m.queryLatency = reg.HistogramVec("skygraph_query_duration_seconds",
		"Server-side query latency by query kind (batch items counted individually).", nil, "kind")
	for i, f := range workFamilies {
		m.queryWork[i] = reg.CounterVec(f.name, f.help, "kind")
	}
	m.queryCacheHit = reg.CounterVec("skygraph_query_cache_hits_total",
		"Queries answered entirely from the table or ranked cache, by query kind.", "kind")

	m.stageSeconds = reg.CounterVec("skygraph_stage_seconds_total",
		"Cascade-stage work time summed across shards and workers, by stage.", "stage")
	m.stagePairs = reg.CounterVec("skygraph_stage_pairs_total",
		"Candidate pairs processed per cascade stage.", "stage")
	m.stagePruned = reg.CounterVec("skygraph_stage_pruned_total",
		"Candidate pairs excluded per cascade stage.", "stage")

	m.slowQueries = reg.Counter("skygraph_slow_queries_total",
		"Queries at or above the slow-query threshold.")

	// Lifetime request counters the handlers already maintain.
	reg.CounterFunc("skygraph_queries_total", "Query requests received (batch items included).",
		func() float64 { return float64(s.queries.Load()) })
	reg.CounterFunc("skygraph_batches_total", "Batch requests received.",
		func() float64 { return float64(s.batches.Load()) })
	reg.CounterFunc("skygraph_inserts_total", "Insert requests received.",
		func() float64 { return float64(s.inserts.Load()) })
	reg.CounterFunc("skygraph_deletes_total", "Delete requests received.",
		func() float64 { return float64(s.deletes.Load()) })
	reg.CounterFunc("skygraph_request_errors_total", "Requests answered with an error.",
		func() float64 { return float64(s.errors.Load()) })
	reg.CounterFunc("skygraph_query_timeouts_total", "Queries that hit their deadline.",
		func() float64 { return float64(s.timeouts.Load()) })
	reg.CounterFunc("skygraph_load_shed_total", "Queries refused with 429 at the inflight-query cap.",
		func() float64 { return float64(s.shed.Load()) })
	reg.CounterFunc("skygraph_degraded_rejects_total", "Mutations refused with 503 in degraded-readonly mode.",
		func() float64 { return float64(s.degradedRejects.Load()) })

	// Fault injection — the registry is process-wide, so these are
	// flat 0 on a production daemon (disarmed failpoints are no-ops).
	reg.GaugeFunc("skygraph_fault_armed_points", "Failpoints currently armed.",
		func() float64 { return float64(fault.Armed()) })
	reg.CounterFunc("skygraph_fault_injected_total", "Faults fired across all failpoints since arming.",
		func() float64 { return float64(fault.TotalFires()) })

	// Write-path health (absent without -data-dir).
	if h := s.health; h != nil {
		reg.GaugeFunc("skygraph_health_state",
			"Write-path health: 0 serving, 1 degraded-readonly, 2 recovering.",
			func() float64 { return float64(h.State()) })
		reg.GaugeFunc("skygraph_health_consecutive_persist_failures",
			"Transient persist failures since the last success.",
			func() float64 { return float64(h.consecFails.Load()) })
		reg.CounterFunc("skygraph_health_degradations_total", "Transitions into degraded-readonly.",
			func() float64 { return float64(h.degradations.Load()) })
		reg.CounterFunc("skygraph_health_probes_total", "Background write probes fired while degraded.",
			func() float64 { return float64(h.probes.Load()) })
		reg.CounterFunc("skygraph_health_probe_failures_total", "Background write probes that failed.",
			func() float64 { return float64(h.probeFails.Load()) })
	}

	// Vector-table / ranked-answer cache.
	reg.CounterFunc("skygraph_cache_hits_total", "Table and ranked cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("skygraph_cache_misses_total", "Table and ranked cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("skygraph_cache_evictions_total", "Cache entries evicted by LRU pressure.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc("skygraph_cache_invalidations_total", "Cache entries dropped by mutations.",
		func() float64 { return float64(s.cache.Stats().Invalidations) })
	reg.CounterFunc("skygraph_cache_delta_applied_total", "Cache entries upgraded in place across a mutation.",
		func() float64 { return float64(s.cache.Stats().DeltaApplied) })
	reg.CounterFunc("skygraph_cache_delta_fallbacks_total", "Cache entries a mutation dropped because no delta proof existed.",
		func() float64 { return float64(s.cache.Stats().DeltaFallbacks) })
	reg.GaugeFunc("skygraph_cache_entries", "Cached tables and ranked answers.",
		func() float64 { return float64(s.cache.Len()) })

	// Cross-query score memo (absent without -memo).
	if memo := s.db.Memo(); memo != nil {
		reg.CounterFunc("skygraph_memo_hits_total", "Score-memo hits since startup.",
			func() float64 { return float64(memo.Stats().Hits) })
		reg.CounterFunc("skygraph_memo_misses_total", "Score-memo misses since startup.",
			func() float64 { return float64(memo.Stats().Misses) })
		reg.GaugeFunc("skygraph_memo_entries", "Memoized pair scores held.",
			func() float64 { return float64(memo.Stats().Entries) })
	}

	// Persistence layer (absent without -data-dir): WAL occupancy and
	// append/fsync counters, snapshot progress, and what the startup
	// recovery rebuilt (the recovery numbers are constants for the
	// process lifetime — gauges so a scrape right after a restart shows
	// whether the WAL tail needed repair).
	if d := s.cfg.Durable; d != nil {
		reg.CounterFunc("skygraph_wal_appends_total", "Records appended to the write-ahead log.",
			func() float64 { return float64(d.Stats().WAL.Appends) })
		reg.CounterFunc("skygraph_wal_appended_bytes_total", "Bytes appended to the write-ahead log.",
			func() float64 { return float64(d.Stats().WAL.AppendedBytes) })
		reg.CounterFunc("skygraph_wal_fsyncs_total", "WAL fsync calls.",
			func() float64 { return float64(d.Stats().WAL.Fsyncs) })
		reg.GaugeFunc("skygraph_wal_segments", "Live WAL segment files.",
			func() float64 { return float64(d.Stats().WAL.Segments) })
		reg.GaugeFunc("skygraph_wal_size_bytes", "Total bytes held in WAL segments.",
			func() float64 { return float64(d.Stats().WAL.SizeBytes) })
		reg.GaugeFunc("skygraph_wal_last_lsn", "LSN of the most recently appended record.",
			func() float64 { return float64(d.Stats().WAL.LastLSN) })
		reg.CounterFunc("skygraph_snapshots_total", "Snapshots cut since startup.",
			func() float64 { return float64(d.Stats().Snapshots) })
		reg.GaugeFunc("skygraph_snapshot_last_lsn", "WAL coverage point of the current snapshot.",
			func() float64 { return float64(d.Stats().LastSnapLSN) })
		reg.GaugeFunc("skygraph_snapshot_graphs", "Graphs in the current snapshot.",
			func() float64 { return float64(d.Stats().LastSnapGraphs) })
		rec := d.Recovery()
		reg.GaugeFunc("skygraph_recovery_snapshot_graphs", "Graphs the startup recovery loaded from the snapshot.",
			func() float64 { return float64(rec.SnapshotGraphs) })
		reg.GaugeFunc("skygraph_recovery_replayed_records", "WAL records the startup recovery replayed.",
			func() float64 { return float64(rec.ReplayedRecords) })
		reg.GaugeFunc("skygraph_recovery_repaired_bytes", "Bytes truncated off a torn WAL tail at startup.",
			func() float64 { return float64(rec.RepairedBytes) })
		reg.GaugeFunc("skygraph_recovery_dropped_segments", "WAL segments dropped as unrecoverable at startup.",
			func() float64 { return float64(rec.DroppedSegments) })
		reg.GaugeFunc("skygraph_recovery_seconds", "Wall time of the startup recovery.",
			func() float64 { return rec.Duration.Seconds() })
	}

	// Per-shard occupancy.
	shardGraphs := reg.GaugeVec("skygraph_shard_graphs", "Graphs stored per shard.", "shard")
	shardGen := reg.GaugeVec("skygraph_shard_generation", "Mutation generation per shard.", "shard")
	for i := 0; i < s.db.NumShards(); i++ {
		shard := s.db.Shard(i)
		label := strconv.Itoa(i)
		shardGraphs.WithFunc(func() float64 { return float64(shard.Len()) }, label)
		shardGen.WithFunc(func() float64 { return float64(shard.Generation()) }, label)
	}

	// Process-level runtime stats and build identity.
	reg.GaugeFunc("skygraph_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.",
		func() float64 { return float64(readMemStats().HeapAlloc) })
	reg.GaugeFunc("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.",
		func() float64 { return float64(readMemStats().HeapSys) })
	reg.CounterFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(readMemStats().NumGC) })
	reg.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(readMemStats().PauseTotalNs) / 1e9 })
	bi := buildInfo()
	buildGauge := reg.GaugeVec("skygraph_build_info",
		"Constant 1, labelled with the build's Go version and VCS revision.", "go_version", "revision")
	buildGauge.With(bi.GoVersion, bi.Revision).Set(1)

	return m
}

// readMemStats snapshots runtime.MemStats. Each callback reads its own
// snapshot; scrapes are rare enough that coherence across gauges is not
// worth a cache.
func readMemStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// buildInfo extracts the wire build identity from the binary's embedded
// build information.
func buildInfo() BuildInfo {
	out := BuildInfo{GoVersion: runtime.Version(), Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			out.Revision = s.Value
		}
	}
	return out
}

// observeQuery feeds one answered query's stats and trace into the
// per-kind and per-stage families. Called for dedicated-endpoint
// queries and each batch item alike.
func (m *metrics) observeQuery(kind string, qs QueryStats, stages []gdb.TraceStage) {
	m.queryLatency.With(kind).Observe(qs.DurationMS / 1e3)
	for i, f := range workFamilies {
		m.queryWork[i].With(kind).Add(float64(f.get(&qs.Work)))
	}
	if qs.CacheHit {
		m.queryCacheHit.With(kind).Inc()
	}
	for _, st := range stages {
		m.stageSeconds.With(st.Stage).Add(st.DurationMS / 1e3)
		m.stagePairs.With(st.Stage).Add(float64(st.Pairs))
		m.stagePruned.With(st.Stage).Add(float64(st.Pruned))
	}
}

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route registers pattern on mux wrapped with per-endpoint
// instrumentation: request count by status code, latency histogram and
// inflight gauge, all labelled with the route pattern.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	inflight := s.met.httpInflight.With(pattern)
	hist := s.met.httpLatency.With(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Inc()
		defer inflight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start).Seconds())
		s.met.httpRequests.With(pattern, strconv.Itoa(sw.code)).Inc()
	})
}
