// Package server implements skygraphd's query-serving subsystem: an
// HTTP/JSON API over a gdb database with an answer cache in front of
// the pair-evaluation hot path. Every answer comes from one scan of the
// database at one generation. The layers are
//
//   - cache.go: an LRU of whole answers keyed by (path, canonical query
//     hash, basis or ranking measure, k or radius, engine options), each
//     entry recording the database generation it is exact at: a skyline
//     answer holds its one GCS vector table, so a repeated skyline query
//     answers with zero new pair evaluations, and a ranked answer holds
//     its items;
//   - delta.go: delta maintenance — a mutation upgrades the cached
//     pruned skyline answers and ranked answers it provably leaves
//     answerable, advancing its generation and changing at most one
//     row, and invalidates the rest;
//   - api.go (this file): the wire types;
//   - querygraph.go: the graph map from a query graph's raw JSON bytes
//     to its decoded graph and canonical hash, so a repeated request
//     decodes and hashes no graph;
//   - server.go: the handlers, per-request timeouts, the one admission
//     gate, and coalesce — the one cache → flight → build loop behind
//     every answer: skyline tables built by DB.VectorTable, ranked
//     answers by the ranked scan;
//   - ranked.go: top-k and range through the library's best-first
//     ranked scan;
//   - batch.go: POST /query/batch, each item on the path its kind fixes,
//     identical items coalescing onto one evaluation per path.
//
// A request's evaluation path follows from what it asks for and nothing
// else: skyline requests use pruned tables unless they set "all", top-k
// and range requests always use the ranked scan, and "all" is the one
// way to build complete tables. Each path reads only the cache entries
// it builds itself. /cache/warm builds whatever the same skyline request
// would.
package server

import (
	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
)

// QueryRequest is the shared body of the three query endpoints
// (/query/skyline, /query/topk, /query/range). Graph uses the same JSON
// encoding as internal/graph: {"name", "vertices": ["label", ...],
// "edges": [{"u", "v", "label"}, ...]}.
type QueryRequest struct {
	// Graph is the query graph q (required).
	Graph *graph.Graph `json:"graph"`
	// K is the result size for /query/topk (required there, >= 1).
	K int `json:"k,omitempty"`
	// Radius is the distance threshold for /query/range (required there).
	Radius *float64 `json:"radius,omitempty"`
	// Measure names the ranking measure for topk/range (default DistEd).
	Measure string `json:"measure,omitempty"`
	// Basis names the GCS basis of a skyline request (default: DistEd,
	// DistMcs, DistGu), each measure at most once. Topk/range validate
	// it but rank by Measure alone.
	Basis []string `json:"basis,omitempty"`
	// TimeoutMS caps this request's evaluation time (0 = server default;
	// values above the server maximum are clamped). The deadline stops
	// the exact engines, and the request answers 504.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// All requests the full vector table in the skyline response. It is
	// the one way to build (and cache) complete tables, on a query or a
	// warm item; a skyline request without it evaluates only the graphs
	// its pruned scan cannot exclude.
	All bool `json:"all,omitempty"`
	// Trace requests the per-stage cascade trace in the response: one
	// entry per stage the query touched (bound, exact and merge)
	// with wall time, pair count and pruned count. The trace
	// is always recorded server-side (it feeds the stage metrics and the
	// slow-query log); this flag only controls whether it is returned.
	Trace bool `json:"trace,omitempty"`
}

// QueryStats reports the work a request caused.
type QueryStats struct {
	// Work counts the fresh evaluation work of this request — exact
	// pairs and pruned graphs, under gdb.Work's JSON keys. It is all 0
	// when the answer came from the cache, and Evaluated + Pruned is the
	// database size on a fresh build.
	gdb.Work
	// DeltaPatched counts the in-place delta upgrades the cached state
	// serving this answer has absorbed since it was cold-built (0 for
	// fresh evaluations and for caches maintained only by invalidation).
	DeltaPatched int `json:"delta_patched"`
	// CacheHit reports whether the answer — the table of a skyline, the
	// items of a topk/range query — came from the cache (or a coalesced
	// in-flight leader).
	CacheHit bool `json:"cache_hit"`
	// DurationMS is the server-side wall-clock time for the request.
	DurationMS float64 `json:"duration_ms"`
}

// PointJSON is one (graph, GCS vector) row.
type PointJSON struct {
	ID  string    `json:"id"`
	Vec []float64 `json:"vec"`
}

// SkylineResponse answers /query/skyline.
type SkylineResponse struct {
	Basis   []string    `json:"basis"`
	Skyline []PointJSON `json:"skyline"`
	// All holds the full vector table when requested.
	All   []PointJSON `json:"all,omitempty"`
	Stats QueryStats  `json:"stats"`
	// Trace is the per-stage cascade breakdown (present when the request
	// set "trace": true). Stage durations are work time on the query's
	// own goroutine, so together they stay within the request's
	// wall-clock duration.
	Trace []gdb.TraceStage `json:"trace,omitempty"`
}

// ItemJSON is one (graph, scalar distance) row.
type ItemJSON struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// TopKResponse answers /query/topk.
type TopKResponse struct {
	Measure string           `json:"measure"`
	K       int              `json:"k"`
	Items   []ItemJSON       `json:"items"`
	Stats   QueryStats       `json:"stats"`
	Trace   []gdb.TraceStage `json:"trace,omitempty"`
}

// RangeResponse answers /query/range.
type RangeResponse struct {
	Measure string           `json:"measure"`
	Radius  float64          `json:"radius"`
	Items   []ItemJSON       `json:"items"`
	Stats   QueryStats       `json:"stats"`
	Trace   []gdb.TraceStage `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /query/batch: many queries answered
// in one request, sharing the cache and one time
// budget. Identical (or isomorphic) items of one kind cost one
// evaluation per (query hash, path).
type BatchRequest struct {
	// Queries holds the batch items (required, at most the server's
	// batch limit).
	Queries []BatchQuery `json:"queries"`
	// TimeoutMS is the budget for the whole batch (0 = server default;
	// clamped to the server maximum). Per-item timeout_ms fields are
	// ignored inside a batch.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchQuery is one batch item: a query kind plus the usual query
// fields.
type BatchQuery struct {
	// Kind selects the query type: "skyline" (default), "topk", "range".
	Kind string `json:"kind,omitempty"`
	QueryRequest
}

// BatchResult answers one batch item: exactly one of Skyline/TopK/Range
// is set on success, Error on failure. Item failures do not fail the
// batch.
type BatchResult struct {
	Kind    string           `json:"kind"`
	Skyline *SkylineResponse `json:"skyline,omitempty"`
	TopK    *TopKResponse    `json:"topk,omitempty"`
	Range   *RangeResponse   `json:"range,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// stats returns the per-item query stats of whichever answer is set.
func (r BatchResult) stats() QueryStats {
	switch {
	case r.Skyline != nil:
		return r.Skyline.Stats
	case r.TopK != nil:
		return r.TopK.Stats
	case r.Range != nil:
		return r.Range.Stats
	}
	return QueryStats{}
}

// BatchStats aggregates the work one batch caused.
type BatchStats struct {
	// Queries is the number of items in the batch.
	Queries int `json:"queries"`
	// Errors counts items that failed.
	Errors int `json:"errors"`
	// Work sums the per-item work counters (see QueryStats); coalesced
	// and cached items contribute 0.
	gdb.Work
	// DeltaPatched aggregates the per-item delta-upgrade counts (see
	// QueryStats).
	DeltaPatched int `json:"delta_patched"`
	// DurationMS is the server-side wall-clock time for the batch.
	DurationMS float64 `json:"duration_ms"`
}

// BatchResponse answers /query/batch, one result per query in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Stats   BatchStats    `json:"stats"`
}

// InsertRequest is the body of POST /graphs. Exactly one of Graph or
// Graphs must be set.
type InsertRequest struct {
	Graph  *graph.Graph   `json:"graph,omitempty"`
	Graphs []*graph.Graph `json:"graphs,omitempty"`
	// IdempotencyKey makes the insert safely retryable. The database
	// notes the key in its one key table as each graph under it
	// applies, and persists it with each WAL record (and each snapshot's
	// manifest), so the server knows which names this key applied — the
	// same in process and across restarts. A retry whose names all
	// applied is a replay; otherwise it skips the names proven applied
	// under the key and inserts only the remainder (completing a
	// partially applied multi-graph insert).
	// Names the key never inserted get no benefit of the doubt: a keyed
	// insert of a name someone else created is a genuine 409 conflict.
	// Keys are client-chosen; reuse across different payloads is the
	// client's bug.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// InsertResponse confirms an insert.
type InsertResponse struct {
	// Inserted lists every requested name now applied under this
	// request's key — freshly inserted or already proven inserted by an
	// earlier attempt with the same key.
	Inserted   []string `json:"inserted"`
	Generation uint64   `json:"generation"`
	// Skipped lists the subset of Inserted that was not re-applied: the
	// key table already showed them inserted under this key.
	Skipped []string `json:"skipped,omitempty"`
	// Replayed reports that nothing was newly inserted: every name was
	// already applied under the key, so Skipped equals Inserted, and
	// Generation is the current one, not the first attempt's.
	Replayed bool `json:"replayed,omitempty"`
}

// DeleteResponse confirms a delete.
type DeleteResponse struct {
	Deleted    string `json:"deleted"`
	Generation uint64 `json:"generation"`
	// Replayed mirrors InsertResponse.Replayed for keyed deletes (the
	// key travels in the X-Skygraph-Idempotency-Key header, DELETE
	// having no body): the key already removed Deleted, and Generation
	// is the current one.
	Replayed bool `json:"replayed,omitempty"`
}

// ListResponse answers GET /graphs.
type ListResponse struct {
	Names      []string `json:"names"`
	Generation uint64   `json:"generation"`
}

// StatsResponse answers GET /stats.
type StatsResponse struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Generation    uint64     `json:"generation"`
	DB            DBStats    `json:"db"`
	Cache         CacheStats `json:"cache"`
	// Durability reports the persistence layer — WAL occupancy, fsync
	// policy, snapshot progress and what the last recovery rebuilt
	// (absent without -data-dir).
	Durability *DurabilityInfo `json:"durability,omitempty"`
	// Health reports the write-path health state machine (absent
	// without -data-dir: an in-memory daemon has no disk to break).
	Health *HealthInfo `json:"health,omitempty"`
	// Fault lists the armed failpoints and their hit/fire counters
	// (absent when none are armed — the production steady state).
	Fault    *FaultInfo   `json:"fault,omitempty"`
	Requests ReqStats     `json:"requests"`
	Runtime  RuntimeStats `json:"runtime"`
	Build    BuildInfo    `json:"build"`
}

// HealthInfo is the wire form of the health state machine.
type HealthInfo struct {
	// State is serving, degraded_readonly or recovering.
	State string `json:"state"`
	// ConsecutiveFailures counts transient persist failures since the
	// last success; Degradations counts serving → degraded transitions.
	ConsecutiveFailures int64  `json:"consecutive_persist_failures"`
	Degradations        uint64 `json:"degradations"`
	// Probes and ProbeFailures count the background WAL write probes
	// fired while degraded.
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// LastPersistError is the most recent transient persist or probe
	// error (empty while everything works).
	LastPersistError string `json:"last_persist_error,omitempty"`
	// InsertSeqHighWater is the largest insert sequence minted so far —
	// the client's reference point for idempotent retry decisions.
	InsertSeqHighWater uint64 `json:"insert_seq_high_water"`
}

// DurabilityInfo is the wire form of the persistence layer's state.
type DurabilityInfo struct {
	// Dir is the data directory; Sync the WAL fsync policy in effect.
	Dir  string `json:"dir"`
	Sync string `json:"sync"`
	// WAL occupancy and lifetime append counters.
	WALSegments    int    `json:"wal_segments"`
	WALSizeBytes   int64  `json:"wal_size_bytes"`
	WALLastLSN     uint64 `json:"wal_last_lsn"`
	WALAppends     uint64 `json:"wal_appends"`
	WALFsyncs      uint64 `json:"wal_fsyncs"`
	Snapshots      uint64 `json:"snapshots"`
	LastSnapLSN    uint64 `json:"last_snapshot_lsn"`
	LastSnapGraphs int    `json:"last_snapshot_graphs"`
	// Recovery reports what the startup rebuild found: graphs loaded
	// from the snapshot, WAL records replayed on top, bytes truncated
	// off a torn tail and whole segments dropped (both 0 after a clean
	// shutdown), and the rebuild's wall time.
	RecoverySnapshotGraphs  int     `json:"recovery_snapshot_graphs"`
	RecoveryReplayedRecords uint64  `json:"recovery_replayed_records"`
	RecoveryRepairedBytes   int64   `json:"recovery_repaired_bytes"`
	RecoveryDroppedSegments int     `json:"recovery_dropped_segments"`
	RecoverySeconds         float64 `json:"recovery_seconds"`
}

// RuntimeStats is a Go runtime snapshot taken when /stats is served.
type RuntimeStats struct {
	Goroutines    int     `json:"goroutines"`
	HeapAllocByte uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes  uint64  `json:"heap_sys_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseMS     float64 `json:"gc_pause_total_ms"`
}

// BuildInfo identifies the running binary.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	// Revision is the VCS commit the binary was built from, or "unknown"
	// when the build carried no VCS stamp.
	Revision string `json:"revision"`
}

// SlowQueryRecord is one line of the slow-query log (JSON, one object
// per line), emitted for any query whose server-side duration reaches
// the -slow-query-ms threshold.
type SlowQueryRecord struct {
	Time       string           `json:"time"`
	Kind       string           `json:"kind"`
	DurationMS float64          `json:"duration_ms"`
	Stats      QueryStats       `json:"stats"`
	Trace      []gdb.TraceStage `json:"trace,omitempty"`
}

// DBStats mirrors gdb.Stats in wire form.
type DBStats struct {
	Graphs       int `json:"graphs"`
	Vertices     int `json:"vertices"`
	Edges        int `json:"edges"`
	VertexLabels int `json:"vertex_labels"`
	EdgeLabels   int `json:"edge_labels"`
	MinSize      int `json:"min_size"`
	MaxSize      int `json:"max_size"`
}

// ReqStats counts requests served since startup.
type ReqStats struct {
	Queries uint64 `json:"queries"`
	Batches uint64 `json:"batches"`
	Inserts uint64 `json:"inserts"`
	Deletes uint64 `json:"deletes"`
	Errors  uint64 `json:"errors"`
	// The lifetime sum of gdb.Work over every table build and
	// best-first ranked scan (see there for each counter), under the
	// keys /stats has always used: Evaluated and Pruned appear as
	// pair_evals and pairs_pruned.
	PairEvals     uint64 `json:"pair_evals"`
	PairsPruned   uint64 `json:"pairs_pruned"`
	QueryTimeouts uint64 `json:"query_timeouts"`
	// LoadShed counts queries refused with 429 at the inflight-query
	// cap; DegradedRejected counts mutations refused with 503 while the
	// daemon was in degraded-readonly mode.
	LoadShed         uint64 `json:"load_shed"`
	DegradedRejected uint64 `json:"degraded_rejected"`
}

// WarmRequest is the body of POST /cache/warm: query graphs whose
// skyline answers should be built (and cached) ahead of traffic — the
// same vector table the same skyline request builds: a pruned one, or
// a complete one for an item that sets "all". Warming populates
// the answer cache: later skyline requests of the same kind on these
// (or isomorphic) graphs answer from the tables, and delta maintenance
// keeps pruned ones across mutations. Top-k and range requests read no
// table.
type WarmRequest struct {
	// Queries holds the query graphs to warm, each with the optional
	// basis/eval/all fields of a skyline request (k and radius are
	// ignored).
	Queries []QueryRequest `json:"queries"`
	// TimeoutMS bounds the whole warming pass (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// WarmResult reports one warmed query.
type WarmResult struct {
	// Evaluated counts fresh pair evaluations; CacheHit reports that
	// the answer was already cached (see QueryStats).
	Evaluated int    `json:"evaluated"`
	CacheHit  bool   `json:"cache_hit"`
	Error     string `json:"error,omitempty"`
}

// WarmResponse answers /cache/warm, one result per query in order.
type WarmResponse struct {
	Results    []WarmResult `json:"results"`
	DurationMS float64      `json:"duration_ms"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Class tells the client how to react without parsing the message:
	//
	//	bad_request  — fix the request; retrying as-is cannot help
	//	not_found    — the named resource does not exist
	//	conflict     — duplicate name; retrying as-is cannot help
	//	overloaded   — load-shed (429); retry after the Retry-After delay
	//	degraded     — read-only mode (503); mutations retry after
	//	               Retry-After, the store is being probed
	//	transient    — a persist failure that should heal (503); safe to
	//	               retry with an idempotency key
	//	corrupt      — corruption-class storage failure (500); retrying
	//	               cannot help, the data directory needs attention
	//	timeout      — the query deadline fired (504)
	//	canceled     — the client went away mid-query
	//	internal     — unclassified server-side failure (500)
	Class string `json:"class,omitempty"`
	// RetryAfterMS mirrors the Retry-After header (milliseconds) on
	// retryable classes, for clients that prefer the body.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// PartialInsert is set on a POST /graphs failure past validation.
	*PartialInsert
}

// PartialInsert reports what a failed multi-graph insert applied before
// it failed: those names stand, and a keyed retry skips them.
type PartialInsert struct {
	Inserted   []string `json:"inserted"`
	Generation uint64   `json:"generation"`
}

// Error classes (see ErrorResponse.Class).
const (
	ClassBadRequest = "bad_request"
	ClassNotFound   = "not_found"
	ClassConflict   = "conflict"
	ClassOverloaded = "overloaded"
	ClassDegraded   = "degraded"
	ClassTransient  = "transient"
	ClassCorrupt    = "corrupt"
	ClassTimeout    = "timeout"
	ClassCanceled   = "canceled"
	ClassInternal   = "internal"
)

// TimeoutHeader propagates the client's per-attempt deadline to the
// server (milliseconds) for requests whose body carries no timeout_ms
// — the server evaluates under the smaller of this and its own limits,
// so work is abandoned the moment the client stops waiting.
const TimeoutHeader = "X-Skygraph-Timeout-Ms"

// IdempotencyHeader carries the idempotency key for DELETE requests
// (no body) and, when set, overrides the body key on POST /graphs.
const IdempotencyHeader = "X-Skygraph-Idempotency-Key"

// FaultInfo reports the failpoint registry in /stats while any point
// is armed.
type FaultInfo struct {
	Armed  int                `json:"armed"`
	Fires  uint64             `json:"fires"`
	Points []fault.PointStats `json:"points"`
}
