package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/testutil"
	"skygraph/internal/topk"
)

func deleteGraph(t *testing.T, url string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", url, resp.StatusCode)
	}
}

func wirePoints(ps []PointJSON) []skyline.Point {
	out := make([]skyline.Point, len(ps))
	for i, p := range ps {
		out[i] = skyline.Point{ID: p.ID, Vec: p.Vec}
	}
	return out
}

func wireItems(is []ItemJSON) []topk.Item {
	out := make([]topk.Item, len(is))
	for i, it := range is {
		out[i] = topk.Item{ID: it.ID, Score: it.Score}
	}
	return out
}

// TestDeltaMatchesColdRecompute is the interleaved-mutation equivalence
// harness: randomized schedules of inserts, deletes and queries, across
// shard counts, with and without the score memo, must keep every
// delta-maintained answer byte-identical to a cold recompute over the
// live graph set —
// and the maintenance must actually fire, so the equivalence is proved
// against upgraded entries, not against a cache that silently fell back
// to invalidation. This arm warms only the ranked answers, whose
// upgrades must fire, and checks "all" skylines, whose complete tables
// carry no lineage: every mutation of their shard drops them.
func TestDeltaMatchesColdRecompute(t *testing.T) {
	runDeltaSchedules(t, true, 6)
}

// TestPrunedDeltaMatchesColdRecompute is the same harness over pruned
// tables: skyline requests without "all", so every cached table is the
// kept set of a pruned scan, maintained by the dominance proofs of
// delta.go. It additionally requires that pruned entries themselves
// absorbed mutations.
func TestPrunedDeltaMatchesColdRecompute(t *testing.T) {
	runDeltaSchedules(t, false, 12)
}

// runDeltaSchedules runs the delta equivalence schedule at shards
// 1/2/3/7 × {plain, pivot-memo, vector}; all selects "all" skylines
// (checked, never warmed) or pruned ones (warmed and checked). The arm
// names date from when "pivot-memo" and "vector" also enabled the pivot
// and vector candidate tiers, which are gone: "pivot-memo" now runs
// with the score memo and "vector" without it. Each arm draws its own
// mutation schedule, seeded from the shard count and the arm name.
func runDeltaSchedules(t *testing.T, all bool, rounds int) {
	base := testutil.SeededGraphs(401, 20)
	pool := testutil.SeededGraphs(402, 10)
	for i, g := range pool {
		g.SetName(fmt.Sprintf("new%02d", i))
	}
	queries := testutil.SeededQueries(403, base, 2)
	radius := 4.0

	for _, shards := range []int{1, 2, 3, 7} {
		for _, mode := range []string{"plain", "pivot-memo", "vector"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				db := gdb.NewSharded(shards)
				if err := db.InsertAll(base); err != nil {
					t.Fatal(err)
				}
				if mode == "pivot-memo" {
					db.EnableScoreMemo(4096)
				}
				s := New(db, Config{CacheSize: 256})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				rng := rand.New(rand.NewSource(int64(shards)*31 + int64(len(mode))))
				live := append([]*graph.Graph(nil), base...)
				next := 0
				prunedPatched, rankedPatched := 0, 0
				for round := 0; round < rounds; round++ {
					// Warm cached state so the mutation has something to
					// maintain: ranked answers, plus pruned skyline tables.
					for _, q := range queries {
						if !all {
							postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &SkylineResponse{})
						}
						postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &TopKResponse{})
						postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &RangeResponse{})
					}
					// One interleaved mutation.
					if next < len(pool) && rng.Intn(2) == 0 {
						g := pool[next]
						next++
						postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, &InsertResponse{})
						live = append(live, g)
					} else {
						victim := rng.Intn(len(live))
						deleteGraph(t, ts.URL+"/graphs/"+live[victim].Name())
						live = append(live[:victim:victim], live[victim+1:]...)
					}
					p, r, c := patchedEntries(s.cache)
					if c > 0 {
						t.Fatalf("round %d: %d complete tables absorbed a mutation; they carry no lineage", round, c)
					}
					prunedPatched += p
					rankedPatched += r
					// Every answer after the mutation must equal the
					// reference recompute (Definitions 11–12, leaf
					// functions only) over the live set.
					for qi, q := range queries {
						label := fmt.Sprintf("shards=%d mode=%s all=%v round=%d q=%d", shards, mode, all, round, qi)
						var sky SkylineResponse
						postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: all}, &sky)
						testutil.RequireSameSkyline(t, label+"/skyline", testutil.ReferenceSkyline(live, q, measure.Options{}), wirePoints(sky.Skyline))
						scores := testutil.ReferenceScores(live, q, measure.DistEd{}, measure.Options{})

						var tk TopKResponse
						postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &tk)
						testutil.RequireSameItems(t, label+"/topk", testutil.ReferenceTopK(scores, 3), wireItems(tk.Items))

						var rr RangeResponse
						postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rr)
						testutil.RequireSameItems(t, label+"/range", testutil.ReferenceRange(scores, radius), wireItems(rr.Items))
					}
				}
				if st := s.cache.Stats(); st.DeltaApplied == 0 {
					t.Fatalf("no deltas applied across the schedule: %+v", st)
				}
				if rankedPatched == 0 {
					t.Fatal("no ranked answer absorbed a mutation across the schedule")
				}
				if !all && prunedPatched == 0 {
					t.Fatal("no pruned table absorbed a mutation across the schedule")
				}
			})
		}
	}
}

// patchedEntries counts the cached pruned skyline answers, ranked
// answers and complete skyline answers that have absorbed at least one
// mutation in place (complete answers carry no lineage, so the last
// must stay 0).
func patchedEntries(c *Cache) (pruned, ranked, complete int) {
	c.lru.PruneFunc(func(key cacheKey, e *cacheEntry) bool {
		switch {
		case e.deltas == 0:
		case key.path == "pruned":
			pruned++
		case key.path == "all":
			complete++
		default:
			ranked++
		}
		return false
	})
	return pruned, ranked, complete
}

// prunedFixture is a one-shard server over gs with a hand-built pruned
// table for q cached at the shard's current generation: its rows are
// the kept set the proofs reason about, so each rule can be driven with
// exactly the dominance relations it needs.
type prunedFixture struct {
	s   *Server
	res resolved
}

func newPrunedFixture(t *testing.T, gs []*graph.Graph, q *graph.Graph, rows []skyline.Point, inexact int) *prunedFixture {
	t.Helper()
	db := testutil.NewSharded(t, 1, gs)
	db.EnableScoreMemo(1024)
	s := New(db, Config{CacheSize: 16})
	res, err := s.resolveQuery("skyline", &QueryRequest{Graph: q})
	if err != nil {
		t.Fatal(err)
	}
	gen := db.ShardGeneration(0)
	s.cache.put(res.key, &cacheEntry{
		gens:    []uint64{gen},
		tables:  []*gdb.VectorTable{{Generation: gen, Basis: res.basis, Points: rows, Inexact: inexact}},
		inexact: inexact,
		lin:     &lineage{q: res.q, qsig: measure.NewSignature(res.q), basis: res.basis},
	})
	return &prunedFixture{s: s, res: res}
}

// insert applies and routes one insert, returning its generation.
func (f *prunedFixture) insert(t *testing.T, g *graph.Graph) uint64 {
	t.Helper()
	ack, err := f.s.db.Insert(g, "")
	if err != nil {
		t.Fatal(err)
	}
	f.s.deltaInsert(g, ack.Shard, ack.Gen)
	return ack.Gen
}

// delete applies and routes one delete, returning its generation.
func (f *prunedFixture) delete(t *testing.T, name string) uint64 {
	t.Helper()
	ack, err := f.s.db.Delete(name, "")
	if err != nil || !ack.Existed {
		t.Fatalf("delete %s: ack=%+v err=%v", name, ack, err)
	}
	f.s.deltaDelete(name, ack.Shard, ack.Gen)
	return ack.Gen
}

// table returns the pruned table cached at gen, or nil.
func (f *prunedFixture) table(gen uint64) *gdb.VectorTable {
	e, ok := f.s.cache.lookup(f.res.key, []uint64{gen}, true)
	if !ok {
		return nil
	}
	return e.tables[0]
}

// engineRuns counts score-memo lookups: every engine path of a delta
// row consults the memo first, so an unchanged count means no engine ran.
func (f *prunedFixture) engineRuns() uint64 {
	st := f.s.db.Memo().Stats()
	return st.Hits + st.Misses
}

// rowIDs lists a table's row names in order.
func rowIDs(t *gdb.VectorTable) []string {
	ids := make([]string, len(t.Points))
	for i, p := range t.Points {
		ids[i] = p.ID
	}
	return ids
}

// extraGraph is a two-vertex graph whose labels no query shares, so its
// tier-0 corner is positive in every distance dimension.
func extraGraph(name string) *graph.Graph {
	g := graph.New(name)
	g.AddVertex("a")
	g.AddVertex("b")
	g.MustAddEdge(0, 1, "x")
	return g
}

// TestPrunedInsertDominatedAtTier0RunsNoEngine: an inserted graph whose
// optimistic corner a kept row strictly dominates only advances the
// table's generation — no engine runs and no row is added.
func TestPrunedInsertDominatedAtTier0RunsNoEngine(t *testing.T) {
	gs := testutil.SeededGraphs(501, 6)
	q := testutil.SeededQueries(502, gs, 1)[0]
	f := newPrunedFixture(t, gs, q, []skyline.Point{{ID: gs[0].Name(), Vec: []float64{0, 0, 0}}}, 0)
	before := f.engineRuns()
	gen := f.insert(t, extraGraph("extra"))
	nt := f.table(gen)
	if nt == nil {
		t.Fatal("the dominated insert fell back")
	}
	if got := rowIDs(nt); len(got) != 1 || nt.Deltas != 1 {
		t.Fatalf("rows %v deltas %d; want the one kept row and 1 delta", got, nt.Deltas)
	}
	if after := f.engineRuns(); after != before {
		t.Fatalf("a tier-0-dominated insert ran the engines (%d memo lookups)", after-before)
	}
}

// TestPrunedInsertScoresUndominated: an insert no kept row dominates,
// at its corner or exactly, is scored and appended with the exact row a
// cold evaluation produces.
func TestPrunedInsertScoresUndominated(t *testing.T) {
	gs := testutil.SeededGraphs(511, 6)
	q := testutil.SeededQueries(512, gs, 1)[0]
	far := []float64{100, 100, 100}
	f := newPrunedFixture(t, gs, q, []skyline.Point{{ID: gs[0].Name(), Vec: far}}, 0)
	late := mustSeeded(513, "late")
	gen := f.insert(t, late)
	nt := f.table(gen)
	if nt == nil {
		t.Fatal("the undominated insert fell back")
	}
	want := testutil.ReferenceTable([]*graph.Graph{late}, q, measure.Options{})[0]
	if len(nt.Points) != 2 || nt.Points[1].ID != "late" || !slices.Equal(nt.Points[1].Vec, want.Vec) {
		t.Fatalf("rows %v; want the kept row then late=%v", nt.Points, want.Vec)
	}
}

// TestPrunedInsertCountsCappedRow: a scored row whose engines hit their
// budget is inexact, and the answer's inexact count moves with its
// table's.
func TestPrunedInsertCountsCappedRow(t *testing.T) {
	gs := testutil.SeededGraphs(511, 6)
	q := testutil.SeededQueries(512, gs, 1)[0]
	f := newPrunedFixture(t, gs, q, []skyline.Point{{ID: gs[0].Name(), Vec: []float64{100, 100, 100}}}, 0)
	// Store the fixture's answer under engine budgets no pair fits in, so
	// the upgrade scores the new row capped.
	e, _ := f.s.cache.lookup(f.res.key, f.s.db.Generations(), true)
	f.res.key.eval = measure.Options{GEDMaxNodes: 1, MCSMaxNodes: 1}
	f.s.cache.put(f.res.key, e)
	gen := f.insert(t, mustSeeded(513, "late"))
	up, ok := f.s.cache.lookup(f.res.key, []uint64{gen}, true)
	if !ok {
		t.Fatal("the undominated insert fell back")
	}
	if nt := up.tables[0]; len(nt.Points) != 2 || nt.Inexact != 1 || up.inexact != 1 {
		t.Fatalf("rows %v, table inexact %d, answer inexact %d; want the capped row appended and counted once on each",
			nt.Points, nt.Inexact, up.inexact)
	}
}

// TestPrunedInsertDominatedExactlyNotKept: an insert whose corner no
// kept row dominates but whose exact row one does is scored and then
// left out of the kept set.
func TestPrunedInsertDominatedExactlyNotKept(t *testing.T) {
	gs := testutil.SeededGraphs(521, 6)
	late := mustSeeded(523, "late")
	for i, q := range testutil.SeededQueries(522, gs, 8) {
		basis := measure.Default()
		exact := testutil.ReferenceTable([]*graph.Graph{late}, q, measure.Options{})[0].Vec
		lo, _ := measure.BoundGCS(measure.NewSignature(late), measure.NewSignature(q), basis)
		// A row between the corner and the exact row in one dimension and
		// equal to the exact row elsewhere dominates the exact row but not
		// the corner.
		d := -1
		for j := range exact {
			if lo[j] < exact[j] {
				d = j
				break
			}
		}
		if d < 0 {
			continue
		}
		row := append([]float64(nil), exact...)
		row[d] = (lo[d] + exact[d]) / 2
		f := newPrunedFixture(t, gs, q, []skyline.Point{{ID: gs[0].Name(), Vec: row}}, 0)
		before := f.engineRuns()
		gen := f.insert(t, late)
		nt := f.table(gen)
		if nt == nil {
			t.Fatalf("q%d: the exactly dominated insert fell back", i)
		}
		if got := rowIDs(nt); len(got) != 1 || nt.Deltas != 1 {
			t.Fatalf("q%d: rows %v deltas %d; want the one kept row and 1 delta", i, got, nt.Deltas)
		}
		if f.engineRuns() == before {
			t.Fatalf("q%d: the row was never scored", i)
		}
		return
	}
	t.Fatal("no query leaves a gap between the corner and the exact row")
}

// TestPrunedDeleteRules covers the three delete outcomes on a pruned
// table: a kept row another kept row strictly dominates is dropped, a
// graph the table never kept only advances the generation (capped rows
// or not), and a front member — or any kept row while capped rows exist
// — falls back to invalidation.
func TestPrunedDeleteRules(t *testing.T) {
	gs := testutil.SeededGraphs(531, 6)
	q := testutil.SeededQueries(532, gs, 1)[0]
	a, b, c := gs[0].Name(), gs[1].Name(), gs[2].Name()
	rows := []skyline.Point{{ID: a, Vec: []float64{1, 0.1, 0.1}}, {ID: b, Vec: []float64{2, 0.2, 0.2}}}
	cases := []struct {
		name     string
		inexact  int
		victim   string
		wantRows []string // nil: fallback
	}{
		{"dominated kept row is dropped", 0, b, []string{a}},
		{"never-kept graph advances the generation", 0, c, []string{a, b}},
		{"never-kept graph with capped rows advances the generation", 1, c, []string{a, b}},
		{"front member falls back", 0, a, nil},
		{"dominated kept row with capped rows falls back", 1, b, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newPrunedFixture(t, gs, q, rows, tc.inexact)
			fallbacks := f.s.cache.Stats().DeltaFallbacks
			gen := f.delete(t, tc.victim)
			nt := f.table(gen)
			if tc.wantRows == nil {
				if nt != nil || f.s.cache.Len() != 0 {
					t.Fatalf("table survived as %v; want a fallback", nt)
				}
				if f.s.cache.Stats().DeltaFallbacks != fallbacks+1 {
					t.Fatal("the fallback was not counted")
				}
				return
			}
			if nt == nil {
				t.Fatal("the delete fell back")
			}
			if got := rowIDs(nt); !slices.Equal(got, tc.wantRows) || nt.Deltas != 1 || nt.Inexact != tc.inexact {
				t.Fatalf("rows %v deltas %d inexact %d; want %v, 1, %d", got, nt.Deltas, nt.Inexact, tc.wantRows, tc.inexact)
			}
		})
	}
}

// TestUnwarmedDaemonKeepsSkylineAcrossInsert: on a daemon nobody
// warmed, a plain skyline request caches pruned tables, an insert
// upgrades them in place, and the repeat is a cache hit that reports
// the patch and answers as a cold recompute would.
func TestUnwarmedDaemonKeepsSkylineAcrossInsert(t *testing.T) {
	for _, shards := range []int{1, 3} {
		_, ts := newShardedTestServer(t, shards, Config{CacheSize: 32})
		q := dataset.PaperQuery()
		var first SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &first)
		if first.Stats.CacheHit {
			t.Fatalf("shards=%d: first request hit an unwarmed cache", shards)
		}
		g := extraGraph("extra")
		if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: insert status %d", shards, r.StatusCode)
		}
		var again SkylineResponse
		postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &again)
		if !again.Stats.CacheHit || again.Stats.Evaluated != 0 || again.Stats.DeltaPatched == 0 {
			t.Fatalf("shards=%d: repeat after insert stats = %+v; want a hit with delta_patched > 0", shards, again.Stats)
		}
		live := append(dataset.PaperDB(), g)
		testutil.RequireSameSkyline(t, fmt.Sprintf("shards=%d", shards), testutil.ReferenceSkyline(live, q, measure.Options{}), wirePoints(again.Skyline))
	}
}

// TestMutationDropsAllTablePatchesPrunedTable: with both an "all" and a
// plain skyline answer cached for one query, one insert drops the
// complete answer — it carries no lineage, so the drop is a counted
// fallback — and patches the owning shard's pruned table in place. Each
// request then reads only its own kind: the "all" repeat rebuilds every
// shard, the plain repeat hits the patched answer.
func TestMutationDropsAllTablePatchesPrunedTable(t *testing.T) {
	const shards = 2
	s, ts := newShardedTestServer(t, shards, Config{CacheSize: 32})
	q := dataset.PaperQuery()
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &SkylineResponse{})
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &SkylineResponse{})
	if got := s.cache.Len(); got != 2 {
		t.Fatalf("cache holds %d entries; want a complete and a pruned answer", got)
	}
	before := s.cache.Stats()
	g := extraGraph("extra")
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	after := s.cache.Stats()
	if after.DeltaFallbacks != before.DeltaFallbacks+1 || after.DeltaApplied != before.DeltaApplied+1 {
		t.Fatalf("insert: delta_fallbacks %d -> %d, delta_applied %d -> %d; want +1 each",
			before.DeltaFallbacks, after.DeltaFallbacks, before.DeltaApplied, after.DeltaApplied)
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after the insert; want 1 (the complete answer dropped)", got)
	}

	live := append(dataset.PaperDB(), g)
	var full SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q, All: true}, &full)
	if full.Stats.ShardHits != 0 || full.Stats.Evaluated != len(live) || full.Stats.DeltaPatched != 0 {
		t.Fatalf("all repeat stats = %+v; want all %d graphs rebuilt on every shard", full.Stats, len(live))
	}
	testutil.RequireSameSkyline(t, "all", testutil.ReferenceTable(live, q, measure.Options{}), wirePoints(full.All))
	var plain SkylineResponse
	postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &plain)
	if !plain.Stats.CacheHit || plain.Stats.Evaluated != 0 || plain.Stats.DeltaPatched != 1 {
		t.Fatalf("plain repeat stats = %+v; want a hit on the patched pruned table", plain.Stats)
	}
	testutil.RequireSameSkyline(t, "plain", testutil.ReferenceSkyline(live, q, measure.Options{}), wirePoints(plain.Skyline))
}

// TestPrunedDeltaUnderConcurrentReads races pruned skyline hits against
// a stream of inserts and deletes. Every answer must be the reference
// skyline of a state the database passed through while the request was
// in flight, and the final answers must match the final state. Run it
// under -race: readers share the tables the maintenance pass upgrades.
func TestPrunedDeltaUnderConcurrentReads(t *testing.T) {
	base := testutil.SeededGraphs(541, 16)
	pool := testutil.SeededGraphs(542, 6)
	for i, g := range pool {
		g.SetName(fmt.Sprintf("new%02d", i))
	}
	queries := testutil.SeededQueries(543, base, 2)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, ts := newShardedTestServerWith(t, shards, Config{CacheSize: 64}, base)
			// The schedule and the reference skyline of every state it
			// passes through are fixed up front.
			rng := rand.New(rand.NewSource(int64(shards)))
			live := append([]*graph.Graph(nil), base...)
			states := [][]*graph.Graph{live}
			type op struct {
				insert *graph.Graph
				delete string
			}
			var ops []op
			next := 0
			for i := 0; i < 12; i++ {
				if next < len(pool) && rng.Intn(2) == 0 {
					ops = append(ops, op{insert: pool[next]})
					live = append(append([]*graph.Graph(nil), live...), pool[next])
					next++
				} else {
					v := rng.Intn(len(live))
					ops = append(ops, op{delete: live[v].Name()})
					live = append(append([]*graph.Graph(nil), live[:v]...), live[v+1:]...)
				}
				states = append(states, live)
			}
			refs := make([][][]skyline.Point, len(queries))
			for qi, q := range queries {
				for _, st := range states {
					refs[qi] = append(refs[qi], testutil.ReferenceSkyline(st, q, measure.Options{}))
				}
			}
			for _, q := range queries {
				postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, nil)
			}

			// started counts mutations sent, applied the ones acked: a
			// request overlapping [applied, started] sees one of those
			// states on every shard. With several shards a read spanning
			// more than one mutation may combine shard states no single
			// state had, so only reads that overlap at most one mutation
			// are checked there.
			var started, applied atomic.Int64
			done := make(chan struct{})
			answered := make(chan struct{}, 1)
			var wg sync.WaitGroup
			stop := sync.OnceFunc(func() { close(done); wg.Wait() })
			defer stop()
			var checked atomic.Int64
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						qi := (r + i) % len(queries)
						lo := applied.Load()
						sky, err := querySkyline(ts.URL, queries[qi])
						hi := started.Load()
						if err != nil {
							t.Error(err)
							return
						}
						select {
						case answered <- struct{}{}:
						default:
						}
						if shards > 1 && hi-lo > 1 {
							continue
						}
						ok := false
						for st := lo; st <= hi; st++ {
							if sameSkyline(refs[qi][st], wirePoints(sky.Skyline)) {
								ok = true
								break
							}
						}
						if !ok {
							t.Errorf("q%d: answer %v matches no state in [%d, %d]", qi, wirePoints(sky.Skyline), lo, hi)
							return
						}
						checked.Add(1)
					}
				}(r)
			}
			for _, o := range ops {
				started.Add(1)
				if o.insert != nil {
					postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: o.insert}, nil)
				} else {
					deleteGraph(t, ts.URL+"/graphs/"+o.delete)
				}
				applied.Add(1)
				// Let the readers answer against the new state before the
				// next mutation: drop an answer from before it, then wait
				// for a fresh one.
				select {
				case <-answered:
				default:
				}
				select {
				case <-answered:
				case <-time.After(10 * time.Second):
					t.Fatal("readers stopped answering")
				}
			}
			stop()
			if checked.Load() == 0 {
				t.Fatal("no concurrent answer was checked")
			}
			t.Logf("%d concurrent answers checked", checked.Load())
			for qi, q := range queries {
				var sky SkylineResponse
				postJSON(t, ts.URL+"/query/skyline", QueryRequest{Graph: q}, &sky)
				testutil.RequireSameSkyline(t, fmt.Sprintf("final q%d", qi), refs[qi][len(ops)], wirePoints(sky.Skyline))
			}
			if s.cache.Stats().DeltaApplied == 0 {
				t.Fatal("no delta applied under concurrent reads")
			}
		})
	}
}

// querySkyline posts one skyline request from any goroutine.
func querySkyline(base string, q *graph.Graph) (SkylineResponse, error) {
	var sky SkylineResponse
	body, err := json.Marshal(QueryRequest{Graph: q})
	if err != nil {
		return sky, err
	}
	resp, err := http.Post(base+"/query/skyline", "application/json", bytes.NewReader(body))
	if err != nil {
		return sky, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sky, fmt.Errorf("skyline status %d", resp.StatusCode)
	}
	return sky, json.NewDecoder(resp.Body).Decode(&sky)
}

// sameSkyline compares two skylines as sets of (ID, vector).
func sameSkyline(want, got []skyline.Point) bool {
	if len(want) != len(got) {
		return false
	}
	byID := make(map[string][]float64, len(want))
	for _, p := range want {
		byID[p.ID] = p.Vec
	}
	for _, p := range got {
		if v, ok := byID[p.ID]; !ok || !slices.Equal(v, p.Vec) {
			return false
		}
	}
	return true
}

func mustSeeded(seed int64, name string) *graph.Graph {
	g := testutil.SeededGraphs(seed, 1)[0]
	g.SetName(name)
	return g
}

// TestRankedInsertDecidedByBound: an inserted graph whose tier-0 bound
// already exceeds a full top-k answer's k-th score, or a range answer's
// radius, carries both answers across the insert without an engine run.
func TestRankedInsertDecidedByBound(t *testing.T) {
	s, ts := newMemoTestServer(t, 1, Config{CacheSize: 16}, dataset.PaperDB())
	q := dataset.PaperQuery()
	radius := 1.0
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &tk)
	var rr RangeResponse
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rr)

	g := extraGraph("extra")
	bs := measure.BoundPair(measure.NewSignature(g), measure.NewSignature(q))
	if lo, _ := bs.Interval(measure.DistEd{}); lo <= tk.Items[2].Score || lo <= radius {
		t.Fatalf("fixture: bound %v does not exceed k-th %v and radius %v", lo, tk.Items[2].Score, radius)
	}
	memo := s.db.Memo().Stats()
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	if after := s.db.Memo().Stats(); after.Hits+after.Misses != memo.Hits+memo.Misses {
		t.Fatal("a bound-decided insert ran the engines")
	}
	live := append(dataset.PaperDB(), g)
	scores := testutil.ReferenceScores(live, q, measure.DistEd{}, measure.Options{})
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 3}, &tk)
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rr)
	if !tk.Stats.CacheHit || tk.Stats.DeltaPatched != 1 || !rr.Stats.CacheHit || rr.Stats.DeltaPatched != 1 {
		t.Fatalf("repeats after insert: topk %+v, range %+v; want patched hits", tk.Stats, rr.Stats)
	}
	testutil.RequireSameItems(t, "topk", testutil.ReferenceTopK(scores, 3), wireItems(tk.Items))
	testutil.RequireSameItems(t, "range", testutil.ReferenceRange(scores, radius), wireItems(rr.Items))
}

// TestRankedInsertAtBoundTies: the bound proves an answer unchanged
// only when it strictly exceeds the k-th score or the radius. A graph
// whose bound equals its exact score, and both equal the threshold, must
// still be scored: it enters a range answer at the radius and a top-k
// answer on the ID tie-break.
func TestRankedInsertAtBoundTies(t *testing.T) {
	twin := func(name string) *graph.Graph {
		g := dataset.PaperQuery().Clone()
		g.SetName(name)
		return g
	}
	gs := append(dataset.PaperDB(), twin("zz"))
	_, ts := newShardedTestServerWith(t, 2, Config{CacheSize: 16}, gs)
	q := dataset.PaperQuery()
	radius := 0.0
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 1}, nil)
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, nil)
	g := twin("aa")
	if r := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: g}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	scores := testutil.ReferenceScores(append(gs, g), q, measure.DistEd{}, measure.Options{})
	var tk TopKResponse
	postJSON(t, ts.URL+"/query/topk", QueryRequest{Graph: q, K: 1}, &tk)
	var rr RangeResponse
	postJSON(t, ts.URL+"/query/range", QueryRequest{Graph: q, Radius: &radius}, &rr)
	if !tk.Stats.CacheHit || !rr.Stats.CacheHit {
		t.Fatalf("repeats after insert missed: topk %+v, range %+v", tk.Stats, rr.Stats)
	}
	testutil.RequireSameItems(t, "topk", testutil.ReferenceTopK(scores, 1), wireItems(tk.Items))
	testutil.RequireSameItems(t, "range", testutil.ReferenceRange(scores, radius), wireItems(rr.Items))
	if tk.Items[0].ID != "aa" || len(rr.Items) != 2 {
		t.Fatalf("topk %v range %v; want aa first and both twins in range", tk.Items, rr.Items)
	}
}
