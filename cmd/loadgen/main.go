// Command loadgen drives a running skygraphd with a configurable mix
// of skyline, top-k, range, batch and mutation traffic and reports
// client-side latency distributions. It is the load side of the
// observability layer: run it against a daemon, then read the server's
// /metrics and slow-query log against loadgen's own percentiles.
//
// Two pacing modes:
//
//   - closed loop (default): -concurrency workers each issue requests
//     back to back, so offered load adapts to server latency;
//   - open loop (-qps > 0): requests start on a fixed schedule
//     regardless of completions, exposing queueing collapse the closed
//     loop hides.
//
// The workload is deterministic from -seed: query graphs are mutated
// clones of a seeded molecule corpus, so two runs against the same
// database offer identical request streams. Inserts add loadgen-owned
// graphs (never touching the preloaded corpus) and deletes only ever
// remove graphs a previous insert of the same run created.
//
// The run ends with a per-kind summary on stderr. loadgen is a smoke
// driver, not a benchmark: it is duration-bound and its numbers do not
// repeat — reproducible measurement lives in benchmark/ (see
// benchmark/README.md).
//
// Requests go through pkg/client, so failures come back typed and the
// summary breaks errors out by class (429 / 503 / timeout / 5xx / 4xx /
// transport) instead of lumping every non-2xx together — essential for
// reading a chaos run, where "the server shed load" and "the server
// lost the disk" are different findings. -retries > 1 turns on the
// client's retry loop (mutations stay safe: inserts and deletes carry
// idempotency keys), and -ack-log records one line per acknowledged
// mutation ("insert NAME" / "delete NAME" as JSON) so an external
// checker can hold the daemon to its acks across crashes and restarts.
//
// -mutate-pct is a shorthand for write-heavy runs: it overrides -mix so
// the given percent of requests are mutations (split evenly between
// insert and delete) and reads share the remainder 4:3:2:1 across
// skyline/topk/range/batch. The summary then carries the server
// cache's movement over the run — hit ratio, delta_applied,
// delta_fallbacks — read from /stats before and after, so a run shows
// directly whether delta maintenance absorbed the writes or the cache
// thrashed.
//
// Usage:
//
//	loadgen -addr :8091 -duration 10s -concurrency 8 \
//	        -mix skyline=4,topk=3,range=2,batch=1,insert=1,delete=1
//	loadgen -addr :8091 -duration 10s -mutate-pct 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/server"
	"skygraph/pkg/client"
)

// errClasses is the fixed error-class vocabulary, in report order.
var errClasses = []string{"429", "503", "timeout", "5xx", "4xx", "transport"}

// classify buckets a request error for the report. Budget-exhausted
// errors wrap the underlying failure, so they classify as that failure.
func classify(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusTooManyRequests:
			return "429"
		case apiErr.Status == http.StatusServiceUnavailable:
			return "503"
		case apiErr.Status == http.StatusGatewayTimeout:
			return "timeout"
		case apiErr.Status >= 500:
			return "5xx"
		default:
			return "4xx"
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "transport"
}

// opKinds is the fixed op vocabulary, in report order.
var opKinds = []string{"skyline", "topk", "range", "batch", "insert", "delete"}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8091", "skygraphd base URL (a bare :port is completed to http://127.0.0.1:port)")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	concurrency := flag.Int("concurrency", 4, "closed-loop workers (also the in-flight cap in open-loop mode)")
	qps := flag.Float64("qps", 0, "open-loop target request rate (0 = closed loop)")
	mixSpec := flag.String("mix", "skyline=4,topk=3,range=2,batch=1,insert=1,delete=1", "comma-separated kind=weight traffic mix (kinds: skyline, topk, range, batch, insert, delete)")
	mutatePct := flag.Int("mutate-pct", -1, "percent of traffic that is mutations, split evenly insert/delete; overrides -mix, reads share the remainder 4:3:2:1 skyline/topk/range/batch (-1 = use -mix)")
	seed := flag.Int64("seed", 1, "workload seed (request stream is deterministic given the seed)")
	corpus := flag.Int("corpus", 64, "seeded molecule corpus size query graphs are mutated from")
	dbSize := flag.Int("db-size", 0, "bulk-insert a synthetic collection of this many graphs before offering load (0 = use the daemon's existing database); deterministic from -seed, names are prefixed loadgen-db-")
	k := flag.Int("k", 5, "k for top-k requests")
	radius := flag.Float64("radius", 6, "radius for range requests")
	batchSize := flag.Int("batch-size", 4, "queries per batch request")
	timeout := flag.Duration("timeout", 30*time.Second, "client-side per-attempt timeout (propagated to the server as its deadline)")
	retries := flag.Int("retries", 1, "client attempts per request, first included (1 = no retries; >1 retries transient failures with backoff, mutations under idempotency keys)")
	ackLogPath := flag.String("ack-log", "", "append one JSON line per acknowledged mutation here, for post-run durability auditing (empty = disabled)")
	waitReady := flag.Duration("wait-ready", 30*time.Second, "wait up to this long for /readyz before starting (0 = skip the check)")
	failOnError := flag.Bool("fail-on-error", false, "exit nonzero when any request failed")
	flag.Parse()

	base := *addr
	if strings.HasPrefix(base, ":") {
		base = "127.0.0.1" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fatalf("%v", err)
	}
	if *mutatePct >= 0 {
		if *mutatePct > 100 {
			fatalf("-mutate-pct %d out of range [0,100]", *mutatePct)
		}
		mix = mutateMix(*mutatePct)
	}

	if *waitReady > 0 {
		if err := awaitReady(&http.Client{Timeout: 5 * time.Second}, base, *waitReady); err != nil {
			fatalf("%v", err)
		}
	}

	cl := client.New(base, client.Options{
		AttemptTimeout: *timeout,
		MaxAttempts:    *retries,
	})
	var acks *ackLog
	if *ackLogPath != "" {
		f, err := os.Create(*ackLogPath)
		if err != nil {
			fatalf("%v", err)
		}
		acks = &ackLog{f: f}
		defer f.Close()
	}

	if *dbSize > 0 {
		if err := seedDatabase(cl, *seed, *dbSize); err != nil {
			fatalf("seeding %d graphs: %v", *dbSize, err)
		}
	}

	gen := newWorkload(*seed, *corpus, *k, *radius, *batchSize)
	rec := newRecorder()
	before := serverStats(cl)
	start := time.Now()
	if *qps > 0 {
		runOpenLoop(cl, gen, mix, rec, acks, *duration, *qps, *concurrency)
	} else {
		runClosedLoop(cl, gen, mix, rec, acks, *duration, *concurrency)
	}
	elapsed := time.Since(start)
	cw := cacheDelta(before, serverStats(cl))

	rec.printSummary(os.Stderr, elapsed, cw)
	if *failOnError && rec.totalErrors() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request(s) failed\n", rec.totalErrors())
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// parseMix parses "skyline=4,topk=3,..." into per-kind weights.
func parseMix(spec string) (map[string]int, error) {
	known := make(map[string]bool, len(opKinds))
	for _, k := range opKinds {
		known[k] = true
	}
	mix := map[string]int{}
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || !known[name] {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight with kind one of %s)", part, strings.Join(opKinds, ", "))
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		mix[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return mix, nil
}

// mutateMix builds the -mutate-pct preset: pct percent of requests are
// mutations (split evenly insert/delete), the rest are reads in the
// canonical 4:3:2:1 skyline/topk/range/batch ratio. Weights are scaled
// so both splits are exact in integers.
func mutateMix(pct int) map[string]int {
	read := 100 - pct
	return map[string]int{
		"insert":  pct * 5,
		"delete":  pct * 5,
		"skyline": read * 4,
		"topk":    read * 3,
		"range":   read * 2,
		"batch":   read * 1,
	}
}

// serverStats fetches /stats, or nil when the daemon cannot answer —
// the run proceeds either way, only the cache digest goes missing.
func serverStats(cl *client.Client) *server.StatsResponse {
	st, err := cl.Stats(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: /stats unavailable: %v\n", err)
		return nil
	}
	return st
}

// cacheWindow is the server-side cache movement across the run: how the
// offered load hit, missed, and — under mutations — how often the cache
// absorbed a write in place versus dropping entries.
type cacheWindow struct {
	hits, misses   uint64
	deltaApplied   uint64
	deltaFallbacks uint64
}

// hitRatio is hits over lookups in the window; 0 when idle.
func (cw *cacheWindow) hitRatio() float64 {
	if total := cw.hits + cw.misses; total > 0 {
		return float64(cw.hits) / float64(total)
	}
	return 0
}

// cacheDelta diffs two /stats snapshots. Counters are monotonic, so a
// plain subtraction isolates this run's contribution; nil when either
// snapshot is missing.
func cacheDelta(before, after *server.StatsResponse) *cacheWindow {
	if before == nil || after == nil {
		return nil
	}
	return &cacheWindow{
		hits:           after.Cache.Hits - before.Cache.Hits,
		misses:         after.Cache.Misses - before.Cache.Misses,
		deltaApplied:   after.Cache.DeltaApplied - before.Cache.DeltaApplied,
		deltaFallbacks: after.Cache.DeltaFallbacks - before.Cache.DeltaFallbacks,
	}
}

// awaitReady polls GET /readyz until the daemon reports ready.
func awaitReady(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon at %s not reachable within %s: %v", base, budget, err)
			}
			return fmt.Errorf("daemon at %s not ready within %s", base, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// seedDatabase bulk-inserts a deterministic synthetic collection so a
// fresh daemon can be driven at a chosen scale (e.g. -db-size 10000)
// without preparing an LGF file. Graphs go in
// batches of 256 under idempotency keys, so an interrupted or retried
// seeding pass converges instead of 409-ing; names already present
// (a previous run's collection) fail the pass, which is the right
// answer — mixing two differently-seeded collections would make the
// workload non-reproducible.
func seedDatabase(cl *client.Client, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed + 7))
	const chunk = 256
	start := time.Now()
	for off := 0; off < n; off += chunk {
		m := chunk
		if n-off < m {
			m = n - off
		}
		gs := make([]*graph.Graph, m)
		for i := range gs {
			g := graph.Molecule(5+rng.Intn(4), rng)
			g.SetName(fmt.Sprintf("loadgen-db-%06d", off+i))
			gs[i] = g
		}
		req := server.InsertRequest{
			Graphs:         gs,
			IdempotencyKey: fmt.Sprintf("loadgen-seed-%d-%06d", seed, off),
		}
		if _, err := cl.Insert(context.Background(), req); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: seeded %d graphs in %s\n", n, time.Since(start).Round(time.Millisecond))
	return nil
}

// workload produces the deterministic request stream: query graphs are
// mutated clones of a fixed molecule corpus, insert graphs are fresh
// molecules owned by this run.
type workload struct {
	corpus    []*graph.Graph
	k         int
	radius    float64
	batchSize int

	nextInsert atomic.Int64
	insertedMu sync.Mutex
	inserted   []string
}

func newWorkload(seed int64, corpusSize, k int, radius float64, batchSize int) *workload {
	rng := rand.New(rand.NewSource(seed))
	corpus := make([]*graph.Graph, corpusSize)
	for i := range corpus {
		corpus[i] = graph.Molecule(5+i%4, rng)
	}
	if batchSize < 1 {
		batchSize = 1
	}
	return &workload{corpus: corpus, k: k, radius: radius, batchSize: batchSize}
}

// queryGraph returns a fresh query graph derived from the corpus.
func (wl *workload) queryGraph(rng *rand.Rand) *graph.Graph {
	base := wl.corpus[rng.Intn(len(wl.corpus))]
	q := graph.Mutate(base, 1+rng.Intn(3), graph.MoleculeAlphabet.Atoms, graph.MoleculeAlphabet.Bonds, rng)
	q.SetName("q")
	return q
}

// insertGraph returns a fresh run-owned graph to insert. The name is
// only remembered (via noteInserted) once the insert has actually
// landed, so deletes never race an in-flight insert into a 404.
func (wl *workload) insertGraph(rng *rand.Rand) *graph.Graph {
	g := graph.Molecule(5+rng.Intn(4), rng)
	// The PID keeps names unique across repeated runs against a daemon
	// that still holds a previous run's graphs.
	g.SetName(fmt.Sprintf("loadgen-%d-%06d", os.Getpid(), wl.nextInsert.Add(1)))
	return g
}

// noteInserted records a successfully inserted run-owned graph name as
// a future delete target.
func (wl *workload) noteInserted(name string) {
	wl.insertedMu.Lock()
	wl.inserted = append(wl.inserted, name)
	wl.insertedMu.Unlock()
}

// popInserted takes one run-owned graph name for deletion, or "" when
// none remain.
func (wl *workload) popInserted() string {
	wl.insertedMu.Lock()
	defer wl.insertedMu.Unlock()
	if len(wl.inserted) == 0 {
		return ""
	}
	name := wl.inserted[len(wl.inserted)-1]
	wl.inserted = wl.inserted[:len(wl.inserted)-1]
	return name
}

// pickKind draws an op kind from the weighted mix.
func pickKind(rng *rand.Rand, mix map[string]int) string {
	total := 0
	for _, k := range opKinds {
		total += mix[k]
	}
	n := rng.Intn(total)
	for _, k := range opKinds {
		n -= mix[k]
		if n < 0 {
			return k
		}
	}
	return "skyline"
}

// ackLog appends one JSON line per acknowledged mutation. Lines are
// written with a single Write under a mutex, so they never interleave;
// an external checker replays the file to hold the daemon to its acks
// (last line per name wins: insert → must exist, delete → must not).
type ackLog struct {
	mu sync.Mutex
	f  *os.File
}

func (a *ackLog) note(op, name string) {
	if a == nil {
		return
	}
	line := fmt.Sprintf("{\"op\":%q,\"name\":%q}\n", op, name)
	a.mu.Lock()
	a.f.WriteString(line)
	a.mu.Unlock()
}

// doInsert issues one keyed insert, recording the name for future
// deletes (and in the ack log) only once the daemon acknowledged it.
// The attempt line written up front lets the checker mark names whose
// final op never got an ack as ambiguous — an unacknowledged mutation
// may legitimately have landed (e.g. the fault hit after the WAL
// record was written), so nothing can be asserted about it.
func doInsert(cl *client.Client, wl *workload, rng *rand.Rand, acks *ackLog) error {
	g := wl.insertGraph(rng)
	acks.note("insert-attempt", g.Name())
	_, err := cl.Insert(context.Background(), server.InsertRequest{Graph: g})
	if err == nil {
		// Log the ack before another worker can pick the name to delete:
		// the checker reads the last line per name as its final state.
		acks.note("insert", g.Name())
		wl.noteInserted(g.Name())
	}
	return err
}

// doOp issues one request of the given kind and reports whether it
// succeeded.
func doOp(cl *client.Client, wl *workload, rng *rand.Rand, kind string, acks *ackLog) error {
	ctx := context.Background()
	switch kind {
	case "skyline":
		_, err := cl.Skyline(ctx, server.QueryRequest{Graph: wl.queryGraph(rng)})
		return err
	case "topk":
		_, err := cl.TopK(ctx, server.QueryRequest{Graph: wl.queryGraph(rng), K: wl.k})
		return err
	case "range":
		r := wl.radius
		_, err := cl.Range(ctx, server.QueryRequest{Graph: wl.queryGraph(rng), Radius: &r})
		return err
	case "batch":
		qs := make([]server.BatchQuery, wl.batchSize)
		for i := range qs {
			switch i % 3 {
			case 0:
				qs[i] = server.BatchQuery{Kind: "skyline", QueryRequest: server.QueryRequest{Graph: wl.queryGraph(rng)}}
			case 1:
				qs[i] = server.BatchQuery{Kind: "topk", QueryRequest: server.QueryRequest{Graph: wl.queryGraph(rng), K: wl.k}}
			default:
				r := wl.radius
				qs[i] = server.BatchQuery{Kind: "range", QueryRequest: server.QueryRequest{Graph: wl.queryGraph(rng), Radius: &r}}
			}
		}
		_, err := cl.Batch(ctx, server.BatchRequest{Queries: qs})
		return err
	case "insert":
		return doInsert(cl, wl, rng, acks)
	case "delete":
		name := wl.popInserted()
		if name == "" {
			// Nothing of ours to delete yet; insert instead so the op
			// still exercises the mutation path.
			return doInsert(cl, wl, rng, acks)
		}
		acks.note("delete-attempt", name)
		_, err := cl.Delete(ctx, name, "")
		if err == nil {
			acks.note("delete", name)
		} else {
			// The delete may or may not have landed; put the name back so
			// a later delete settles it rather than leaking the slot.
			wl.noteInserted(name)
		}
		return err
	}
	return fmt.Errorf("unknown op kind %q", kind)
}

// runClosedLoop runs workers that each issue requests back to back
// until the deadline.
func runClosedLoop(cl *client.Client, wl *workload, mix map[string]int, rec *recorder, acks *ackLog, d time.Duration, workers int) {
	if workers < 1 {
		workers = 1
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for time.Now().Before(deadline) {
				kind := pickKind(rng, mix)
				t0 := time.Now()
				err := doOp(cl, wl, rng, kind, acks)
				rec.record(kind, time.Since(t0), err)
			}
		}(w)
	}
	wg.Wait()
}

// runOpenLoop starts requests on a fixed schedule. Arrivals that would
// exceed the in-flight cap are counted as dropped rather than queued,
// so the offered rate stays honest when the server falls behind.
func runOpenLoop(cl *client.Client, wl *workload, mix map[string]int, rec *recorder, acks *ackLog, d time.Duration, qps float64, cap int) {
	if cap < 1 {
		cap = 1
	}
	period := time.Duration(float64(time.Second) / qps)
	if period <= 0 {
		period = time.Microsecond
	}
	rng := rand.New(rand.NewSource(12345))
	sem := make(chan struct{}, cap)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		kind := pickKind(rng, mix)
		select {
		case sem <- struct{}{}:
		default:
			rec.drop()
			continue
		}
		// Each op draws from its own rng so in-flight requests do not
		// race the dispatcher's stream.
		opRng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func(kind string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			err := doOp(cl, wl, opRng, kind, acks)
			rec.record(kind, time.Since(t0), err)
		}(kind)
	}
	wg.Wait()
}

// recorder accumulates per-kind client-side latencies and error counts,
// the latter broken out by class (429 / 503 / timeout / 5xx / 4xx /
// transport) so a chaos run's failure mix is interpretable.
type recorder struct {
	mu      sync.Mutex
	lat     map[string][]float64      // milliseconds
	errs    map[string]int            // kind → total errors
	classes map[string]map[string]int // kind → class → errors
	dropped int
}

func newRecorder() *recorder {
	return &recorder{
		lat:     map[string][]float64{},
		errs:    map[string]int{},
		classes: map[string]map[string]int{},
	}
}

func (r *recorder) record(kind string, d time.Duration, err error) {
	ms := float64(d.Microseconds()) / 1000
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errs[kind]++
		byClass := r.classes[kind]
		if byClass == nil {
			byClass = map[string]int{}
			r.classes[kind] = byClass
		}
		byClass[classify(err)]++
		return
	}
	r.lat[kind] = append(r.lat[kind], ms)
}

func (r *recorder) drop() {
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

func (r *recorder) totalErrors() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.errs {
		n += e
	}
	return n
}

// percentile returns the q-quantile of sorted ms latencies.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// kindStats is one kind's digest.
type kindStats struct {
	count                     int
	errors                    int
	classes                   map[string]int
	meanMS, p50, p95, p99, mx float64
}

func (r *recorder) stats(kind string) kindStats {
	r.mu.Lock()
	lat := append([]float64(nil), r.lat[kind]...)
	errs := r.errs[kind]
	classes := map[string]int{}
	for c, n := range r.classes[kind] {
		classes[c] = n
	}
	r.mu.Unlock()
	sort.Float64s(lat)
	st := kindStats{count: len(lat), errors: errs, classes: classes}
	if len(lat) == 0 {
		return st
	}
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	st.meanMS = sum / float64(len(lat))
	st.p50 = percentile(lat, 0.50)
	st.p95 = percentile(lat, 0.95)
	st.p99 = percentile(lat, 0.99)
	st.mx = lat[len(lat)-1]
	return st
}

// classBreakdown renders "429=2 503=5" from a class→count map, in the
// fixed errClasses order; empty when there were no errors.
func classBreakdown(classes map[string]int) string {
	parts := []string{}
	for _, c := range errClasses {
		if n := classes[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	return strings.Join(parts, " ")
}

// printSummary writes the human-readable digest.
func (r *recorder) printSummary(w io.Writer, elapsed time.Duration, cw *cacheWindow) {
	fmt.Fprintf(w, "loadgen: %s elapsed\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "%-10s %8s %7s %10s %10s %10s %10s %10s  %s\n",
		"kind", "count", "errors", "mean-ms", "p50-ms", "p95-ms", "p99-ms", "max-ms", "error-classes")
	total := map[string]int{}
	for _, kind := range opKinds {
		st := r.stats(kind)
		if st.count == 0 && st.errors == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %8d %7d %10.2f %10.2f %10.2f %10.2f %10.2f  %s\n",
			kind, st.count, st.errors, st.meanMS, st.p50, st.p95, st.p99, st.mx, classBreakdown(st.classes))
		for c, n := range st.classes {
			total[c] += n
		}
	}
	if len(total) > 0 {
		fmt.Fprintf(w, "errors by class: %s\n", classBreakdown(total))
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "dropped (open-loop in-flight cap): %d\n", r.dropped)
	}
	if cw != nil {
		fmt.Fprintf(w, "server cache: hit-ratio=%.2f (hits=%d misses=%d) delta_applied=%d delta_fallbacks=%d\n",
			cw.hitRatio(), cw.hits, cw.misses, cw.deltaApplied, cw.deltaFallbacks)
	}
}
