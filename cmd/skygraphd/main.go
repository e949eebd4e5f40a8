// Command skygraphd is the skygraph query-serving daemon: it loads a
// graph database from LGF and serves similarity skyline, top-k and
// range queries over an HTTP/JSON API. Every query is one scan of the
// database. Each request's evaluation path follows from its kind: skyline
// queries build one pruned table (a complete one when "all" is set) and
// answer with its skyline; top-k and range queries run one best-first
// scan against one threshold. An LRU cache of whole answers — the table
// of a skyline, the items of a top-k or range query — sits in front of
// the GED/MCS pair-evaluation hot path and is delta-maintained across
// mutations: an upgrade advances the entry's generation and changes at
// most one row.
//
// Usage:
//
//	skygraphd -addr :8091 -db db.lgf -cache 128 -timeout 30s
//
// Endpoints:
//
//	POST   /query/skyline   graph similarity skyline GSS(D, q)
//	POST   /query/topk      single-measure top-k baseline
//	POST   /query/range     single-measure range query
//	POST   /query/batch     many queries, one request and time budget
//	POST   /cache/warm      prebuild the skyline tables of given queries
//	GET    /graphs          list graph names
//	POST   /graphs          insert graph(s), maintaining the cached answers
//	GET    /graphs/{name}   fetch one graph as JSON
//	DELETE /graphs/{name}   delete a graph, maintaining the cached answers
//	GET    /stats           database, cache and request counters
//	GET    /metrics         Prometheus text exposition (format 0.0.4)
//	GET    /healthz         liveness probe
//	GET    /readyz          readiness probe (database loaded, writes not degraded)
//
// -slow-query-ms logs any query at or above the threshold as one JSON
// line (with its per-stage trace) to stderr; -pprof-addr serves
// net/http/pprof on a separate listener, kept off the query port.
//
// -data-dir makes the database durable: every acked mutation is
// write-ahead logged there (fsynced per -fsync), -snapshot-every cuts
// periodic atomic snapshots that let the log be reclaimed, and a
// restart with the same directory replays snapshot + log back into the
// exact pre-crash database. The listener answers 503 (and /readyz
// "recovering") until the replay completes. On SIGTERM the daemon
// drains HTTP, cuts a final snapshot and closes the log.
//
// Resilience knobs: -degrade-after K trips the daemon into
// degraded-readonly after K consecutive transient persist failures
// (mutations 503 with Retry-After, queries keep serving from memory)
// with a background probe every -probe-every re-arming writes;
// -max-inflight-queries, the one admission gate, sheds excess query,
// batch and warm requests with 429 before decoding them;
// -retry-after sets the hint clients see on 503/429. -fault arms
// failpoints at startup (e.g. "wal/fsync=error:err=EIO,p=0.1") and
// -fault-admin exposes GET/POST /admin/fault for runtime control —
// both are for testing and chaos drills, never production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/server"
	"skygraph/internal/wal"
)

// parseFsync resolves the -fsync flag: "always", "never", or a
// duration ("100ms") selecting interval flushing with that period.
func parseFsync(v string) (wal.SyncPolicy, time.Duration, error) {
	switch v {
	case "always":
		return wal.SyncAlways, 0, nil
	case "never":
		return wal.SyncNever, 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-fsync must be always, never or a positive duration, got %q", v)
	}
	return wal.SyncInterval, d, nil
}

// warmingHandler answers while recovery replays the data directory:
// liveness is fine, everything else (readiness included) is 503 so
// load balancers keep traffic away until the swap to the real handler.
func warmingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"recovering"}`)
	})
	return mux
}

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	dbPath := flag.String("db", "", "database LGF file (empty = start with an empty database)")
	cacheSize := flag.Int("cache", 128, "vector-table cache capacity (entries, one per query; 0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query timeout: a query's deadline stops its exact engines and answers 504 (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "hard cap on request-supplied timeouts (0 = none)")
	maxBatch := flag.Int("max-batch", 0, "max queries per /query/batch request (0 = default)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log queries at or above this server-side duration as JSON lines to stderr (0 = disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it private)")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL + snapshots; a restart with the same directory recovers the database (empty = in-memory only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, never, or a flush interval like 100ms")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "cut a snapshot (and reclaim covered WAL segments) this often; 0 disables periodic snapshots (needs -data-dir)")
	degradeAfter := flag.Int("degrade-after", 0, "consecutive transient persist failures before entering degraded-readonly (0 = package default of 3; needs -data-dir)")
	probeEvery := flag.Duration("probe-every", 0, "how often the degraded daemon probes the persistence path to re-arm writes (0 = package default of 500ms)")
	maxInflightQueries := flag.Int("max-inflight-queries", 0, "the one admission gate: shed query, batch and warm requests beyond this many in flight with 429 (0 = unlimited; mutations are never shed)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 503/429 responses (0 = 1s default)")
	faultSpec := flag.String("fault", "", "arm failpoints at startup, e.g. \"wal/fsync=error:err=EIO,p=0.1\" (testing only)")
	faultAdmin := flag.Bool("fault-admin", false, "expose GET/POST /admin/fault for runtime failpoint control (testing only; keep off in production)")
	flag.Parse()

	syncPolicy, syncEvery, err := parseFsync(*fsync)
	if err != nil {
		log.Fatalf("skygraphd: %v", err)
	}
	if *faultSpec != "" {
		if err := fault.Configure(*faultSpec); err != nil {
			log.Fatalf("skygraphd: -fault: %v", err)
		}
		log.Printf("skygraphd: armed %d failpoint(s) from -fault (testing mode)", fault.Armed())
	}

	// The listener comes up before recovery so orchestrators can probe
	// /healthz from the start; every other route answers 503 until the
	// real handler is swapped in below.
	var handler atomic.Value // http.Handler
	handler.Store(warmingHandler())
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { handler.Load().(http.Handler).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	var db *gdb.DB
	var durable *gdb.Durable
	if *dataDir != "" {
		durable, err = gdb.OpenDurable(gdb.DurableOptions{
			Dir:       *dataDir,
			Sync:      syncPolicy,
			SyncEvery: syncEvery,
		})
		if err != nil {
			log.Fatalf("skygraphd: opening %s: %v", *dataDir, err)
		}
		db = durable.DB
		rec := durable.Recovery()
		log.Printf("skygraphd: recovered %s in %s: %d graphs from snapshot, %d WAL records replayed (repaired %d bytes, dropped %d segments)",
			*dataDir, rec.Duration.Round(time.Millisecond), rec.SnapshotGraphs, rec.ReplayedRecords, rec.RepairedBytes, rec.DroppedSegments)
		if *dbPath != "" && db.Len() == 0 {
			// Bootstrap an empty data directory from the LGF file; the
			// inserts flow through the WAL like any mutation.
			loaded, err := gdb.Load(*dbPath)
			if err != nil {
				log.Fatalf("skygraphd: loading %s: %v", *dbPath, err)
			}
			if err := db.InsertAll(loaded.Graphs()); err != nil {
				log.Fatalf("skygraphd: importing %s: %v", *dbPath, err)
			}
			log.Printf("skygraphd: imported %d graphs from %s into %s", db.Len(), *dbPath, *dataDir)
		}
	} else {
		db = gdb.New()
		if *dbPath != "" {
			if db, err = gdb.Load(*dbPath); err != nil {
				log.Fatalf("skygraphd: loading %s: %v", *dbPath, err)
			}
		}
	}
	stats := db.Stats()
	log.Printf("skygraphd: serving %d graphs (%d vertices, %d edges) on %s",
		stats.Graphs, stats.Vertices, stats.Edges, *addr)

	srv := server.New(db, server.Config{
		CacheSize:          *cacheSize,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxBatch:           *maxBatch,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
		Durable:            durable,
		DegradeAfter:       *degradeAfter,
		ProbeEvery:         *probeEvery,
		MaxInflightQueries: *maxInflightQueries,
		RetryAfter:         *retryAfter,
		FaultAdmin:         *faultAdmin,
	})
	handler.Store(srv.Handler()) // recovery done: start serving for real

	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	if durable != nil && *snapshotEvery > 0 {
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := durable.Snapshot(); err != nil {
						log.Printf("skygraphd: snapshot: %v", err)
					}
				case <-snapStop:
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	if *pprofAddr != "" {
		// pprof gets its own mux and listener so profiling endpoints
		// never share the query port (or its inflight accounting).
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("skygraphd: pprof on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("skygraphd: pprof: %v", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("skygraphd: %v", err)
	case sig := <-sigCh:
		log.Printf("skygraphd: received %v, draining", sig)
	}

	// Shutdown order matters for durability: drain HTTP first so no new
	// mutations arrive, then cut a final snapshot (making the next
	// restart replay-free), and only then flush and close the WAL — a
	// mutation acked before the drain finished is on disk either way.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("skygraphd: shutdown: %v", err)
	}
	srv.Close() // stop the health probe before the WAL goes away
	close(snapStop)
	<-snapDone
	if durable != nil {
		if err := durable.Snapshot(); err != nil {
			log.Printf("skygraphd: final snapshot: %v", err)
		}
		if err := durable.Close(); err != nil {
			log.Printf("skygraphd: closing wal: %v", err)
		}
	}
	fmt.Println("skygraphd: stopped")
}
