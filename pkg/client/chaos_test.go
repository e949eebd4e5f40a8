package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/server"
)

// TestChaosSoak is the capstone resilience test: a concurrent mutation
// workload driven through the retrying client while failpoints fire and
// the daemon restarts, twice — once fault-free (the reference) and once
// under chaos — with the requirement that both runs converge to the
// same database: every acknowledged mutation survives the final
// restart, every unacknowledged one is absent, and canonicalized
// skyline / top-k / range answers are byte-identical across the runs.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second integration test")
	}
	ops := buildChaosOps()
	queries := chaosQueries()

	ref := soakRun(t, ops, queries, false)
	chaos := soakRun(t, ops, queries, true)

	if !bytes.Equal(ref, chaos) {
		t.Fatalf("answers diverged between fault-free and chaos runs:\nref:   %s\nchaos: %s", ref, chaos)
	}
}

// chaosOp is one workload mutation. Each op carries its idempotency key
// so every retry — the client's own attempts and the workload's outer
// until-acked loop — presents the same key to the server.
type chaosOp struct {
	insert *graph.Graph // nil for deletes
	name   string
	key    string
}

// buildChaosOps returns per-worker op lists: 40 deterministic molecule
// inserts partitioned across 4 workers, each worker then deleting its
// every-third graph. Per-name ordering (insert before delete) holds
// because a name's two ops live on the same worker, in order.
func buildChaosOps() [][]chaosOp {
	rng := rand.New(rand.NewSource(42))
	const workers = 4
	ops := make([][]chaosOp, workers)
	var deletes [workers][]chaosOp
	for i := 0; i < 40; i++ {
		g := graph.Molecule(5+i%4, rng)
		g.SetName(fmt.Sprintf("chaos-%02d", i))
		w := i % workers
		ops[w] = append(ops[w], chaosOp{insert: g, name: g.Name(), key: fmt.Sprintf("ins-%02d", i)})
		if i%3 == 0 {
			deletes[w] = append(deletes[w], chaosOp{name: g.Name(), key: fmt.Sprintf("del-%02d", i)})
		}
	}
	for w := range ops {
		ops[w] = append(ops[w], deletes[w]...)
	}
	return ops
}

// chaosFinalNames is the set the database must hold after either run:
// every inserted name whose delete was not part of the workload.
func chaosFinalNames() []string {
	var names []string
	for i := 0; i < 40; i++ {
		if i%3 != 0 {
			names = append(names, fmt.Sprintf("chaos-%02d", i))
		}
	}
	sort.Strings(names)
	return names
}

// chaosQueries returns the fixed query graphs answers are compared on.
func chaosQueries() []*graph.Graph {
	rng := rand.New(rand.NewSource(7))
	qs := make([]*graph.Graph, 3)
	for i := range qs {
		qs[i] = graph.Molecule(6, rng)
		qs[i].SetName("q")
	}
	return qs
}

// chaosDaemon is a restartable durable skygraphd behind one stable URL:
// the httptest listener survives restarts, delegating to whichever
// handler is current. While "down", connections are hijacked and
// dropped so the client sees transport errors, as it would across a
// real crash.
type chaosDaemon struct {
	t   *testing.T
	dir string
	h   atomic.Value // http.Handler
	ts  *httptest.Server

	mu  sync.Mutex
	srv *server.Server
	d   *gdb.Durable
}

// downHandler (and the Store of srv.Handler below) always stores an
// http.HandlerFunc: atomic.Value requires one consistent concrete type.
func downHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
}

func newChaosDaemon(t *testing.T) *chaosDaemon {
	cd := &chaosDaemon{t: t, dir: t.TempDir()}
	cd.h.Store(downHandler())
	cd.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cd.h.Load().(http.HandlerFunc).ServeHTTP(w, r)
	}))
	cd.start()
	t.Cleanup(func() {
		cd.stop()
		cd.ts.Close()
	})
	return cd
}

func (cd *chaosDaemon) start() {
	cd.t.Helper()
	d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: cd.dir})
	if err != nil {
		cd.t.Fatalf("OpenDurable: %v", err)
	}
	srv := server.New(d.DB, server.Config{
		CacheSize:    32,
		Durable:      d,
		DegradeAfter: 2,
		ProbeEvery:   20 * time.Millisecond,
		RetryAfter:   50 * time.Millisecond,
	})
	cd.mu.Lock()
	cd.d, cd.srv = d, srv
	cd.mu.Unlock()
	cd.h.Store(http.HandlerFunc(srv.Handler().ServeHTTP))
}

// stop takes the daemon down like a crash: the URL starts dropping
// connections, then the server and WAL close under whatever requests
// are still in flight (they surface as transient 503s, as a dying
// process would produce).
func (cd *chaosDaemon) stop() {
	cd.h.Store(downHandler())
	cd.mu.Lock()
	srv, d := cd.srv, cd.d
	cd.srv, cd.d = nil, nil
	cd.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if d != nil {
		d.Close() // a double Close (or close-under-fire) error is part of the chaos
	}
}

func (cd *chaosDaemon) restart() {
	cd.stop()
	cd.start()
}

// soakRun executes the workload against a fresh data directory —
// optionally under failpoint storms and restarts — then cleanly
// restarts, verifies the database holds exactly the acknowledged state,
// and returns the canonicalized answers to the fixed queries.
func soakRun(t *testing.T, ops [][]chaosOp, queries []*graph.Graph, chaos bool) []byte {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)

	cd := newChaosDaemon(t)
	cl := New(cd.ts.URL, Options{
		AttemptTimeout: 5 * time.Second,
		MaxAttempts:    4,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		RetryBudget:    1000,
		RetryRatio:     1,
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		runChaosOps(t, cl, ops)
	}()

	if chaos {
		// Failpoint storms with a restart every other round. Faults are
		// cleared before each restart so recovery itself runs clean — the
		// storm targets live traffic, which is what the acked/unacked
		// contract is about.
		specs := []string{
			"wal/append=error:err=ENOSPC,limit=4",
			"wal/fsync=error:err=EIO,limit=3",
			"wal/append=short:bytes=5,limit=2",
		}
		for i := 0; i < 6; i++ {
			select {
			case <-done:
			default:
			}
			if err := fault.Configure(specs[i%len(specs)]); err != nil {
				t.Fatalf("fault.Configure: %v", err)
			}
			time.Sleep(40 * time.Millisecond)
			fault.Reset()
			if i%2 == 1 {
				cd.restart()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("workload did not complete")
	}
	fault.Reset()

	if chaos {
		soakDegradedPhase(t, cd, cl)
	}

	// Clean final restart: whatever the run left in the WAL must replay
	// to exactly the acknowledged state.
	cd.restart()

	ctx := context.Background()
	list, err := cl.List(ctx)
	if err != nil {
		t.Fatalf("List after final restart: %v", err)
	}
	got := append([]string(nil), list.Names...)
	sort.Strings(got)
	want := chaosFinalNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("database after final restart does not match acknowledged state:\ngot:  %v\nwant: %v", got, want)
	}

	return canonicalAnswers(t, cl, queries)
}

// runChaosOps drives every op to acknowledgment: the client's internal
// retries handle transient windows, and the outer loop re-presents the
// same idempotency key until the daemon acks — the server's replay
// (answered from WAL-recovered keys after a restart) makes that
// at-most-once.
func runChaosOps(t *testing.T, cl *Client, ops [][]chaosOp) {
	var wg sync.WaitGroup
	for _, list := range ops {
		wg.Add(1)
		go func(list []chaosOp) {
			defer wg.Done()
			for _, op := range list {
				deadline := time.Now().Add(90 * time.Second)
				for {
					var err error
					if op.insert != nil {
						_, err = cl.Insert(context.Background(), server.InsertRequest{Graph: op.insert, IdempotencyKey: op.key})
					} else {
						_, err = cl.Delete(context.Background(), op.name, op.key)
					}
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("op on %s never acked: %v", op.name, err)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(list)
	}
	wg.Wait()
}

// soakDegradedPhase proves the daemon degrades instead of 500-ing
// forever: with a persistent append fault armed, unkeyed-retry-free
// mutations fail until the machine trips to degraded-readonly, queries
// keep answering from memory, and clearing the fault lets the probe
// re-arm writes. The probe inserts are never acknowledged, so the final
// membership check doubles as their absence check.
func soakDegradedPhase(t *testing.T, cd *chaosDaemon, cl *Client) {
	t.Helper()
	if err := fault.Configure("wal/append=error:err=ENOSPC"); err != nil {
		t.Fatalf("fault.Configure: %v", err)
	}
	oneshot := New(cd.ts.URL, Options{AttemptTimeout: 2 * time.Second, MaxAttempts: 1})
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		g := graph.Molecule(5, rng)
		g.SetName("degrade-probe")
		if _, err := oneshot.Insert(ctx, server.InsertRequest{Graph: g}); err == nil {
			t.Fatal("insert succeeded with a persistent append fault armed")
		}
	}
	waitState(t, cl, func(state string) bool { return state == "degraded_readonly" })

	// Reads stay up in degraded-readonly.
	if _, err := cl.Skyline(ctx, server.QueryRequest{Graph: chaosQueries()[0]}); err != nil {
		t.Fatalf("skyline while degraded: %v", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats while degraded: %v", err)
	}
	if stats.Health == nil || stats.Health.Degradations < 1 {
		t.Fatalf("degraded daemon reported no degradation: %+v", stats.Health)
	}

	// Heal the disk; the probe must move the machine off degraded.
	fault.Reset()
	waitState(t, cl, func(state string) bool { return state != "degraded_readonly" })
}

// waitState polls /stats until the health state satisfies ok.
func waitState(t *testing.T, cl *Client, ok func(string) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := cl.Stats(context.Background())
		if err == nil && stats.Health != nil && ok(stats.Health.State) {
			return
		}
		if time.Now().After(deadline) {
			state := "<unreachable>"
			if err == nil && stats.Health != nil {
				state = stats.Health.State
			}
			t.Fatalf("health state stuck at %s", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// canonicalAnswers renders the fixed queries' answers in a
// concurrency-independent form: result rows carry only identity and
// score, sorted on them, so two runs that converged to the same
// database produce identical bytes regardless of insertion interleaving
// or timing fields.
func canonicalAnswers(t *testing.T, cl *Client, queries []*graph.Graph) []byte {
	t.Helper()
	ctx := context.Background()
	type answer struct {
		Skyline []server.PointJSON `json:"skyline"`
		TopK    []server.ItemJSON  `json:"topk"`
		Range   []server.ItemJSON  `json:"range"`
	}
	radius := 6.0
	var answers []answer
	for _, q := range queries {
		sky, err := cl.Skyline(ctx, server.QueryRequest{Graph: q})
		if err != nil {
			t.Fatalf("skyline: %v", err)
		}
		// K covers the whole database so score ties at a smaller k's
		// boundary cannot make the result set run-dependent.
		topk, err := cl.TopK(ctx, server.QueryRequest{Graph: q, K: 100})
		if err != nil {
			t.Fatalf("topk: %v", err)
		}
		rng, err := cl.Range(ctx, server.QueryRequest{Graph: q, Radius: &radius})
		if err != nil {
			t.Fatalf("range: %v", err)
		}
		a := answer{Skyline: sky.Skyline, TopK: topk.Items, Range: rng.Items}
		sort.Slice(a.Skyline, func(i, j int) bool { return a.Skyline[i].ID < a.Skyline[j].ID })
		sortItems(a.TopK)
		sortItems(a.Range)
		answers = append(answers, a)
	}
	b, err := json.Marshal(answers)
	if err != nil {
		t.Fatalf("marshal answers: %v", err)
	}
	return b
}

func sortItems(items []server.ItemJSON) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Score != items[j].Score {
			return items[i].Score < items[j].Score
		}
		return items[i].ID < items[j].ID
	})
}
