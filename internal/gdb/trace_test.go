package gdb_test

import (
	"context"
	"fmt"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/testutil"
)

// stageSums folds a trace's wire form into totals for assertions.
func stageSums(stages []gdb.TraceStage) (pruned, exactPairs, exactPruned int, byName map[string]gdb.TraceStage) {
	byName = make(map[string]gdb.TraceStage, len(stages))
	for _, s := range stages {
		byName[s.Stage] = s
		pruned += s.Pruned
		if s.Stage == "exact" {
			exactPairs, exactPruned = s.Pairs, s.Pruned
		}
	}
	return pruned, exactPairs, exactPruned, byName
}

// requireTraceConsistent asserts the documented trace/stats invariants:
// per-stage pruned counts sum to Stats.Pruned, and the exact stage's
// pairs minus its pruned equal Stats.Evaluated.
func requireTraceConsistent(t *testing.T, label string, tr *gdb.QueryTrace, stats gdb.QueryStats, dbLen int) {
	t.Helper()
	stages := tr.Stages()
	if len(stages) == 0 {
		t.Fatalf("%s: empty trace", label)
	}
	pruned, exactPairs, exactPruned, _ := stageSums(stages)
	if pruned != stats.Pruned {
		t.Fatalf("%s: stage pruned sum %d != stats.Pruned %d (stages %+v)", label, pruned, stats.Pruned, stages)
	}
	if exactPairs-exactPruned != stats.Evaluated {
		t.Fatalf("%s: exact pairs %d - pruned %d != stats.Evaluated %d (stages %+v)",
			label, exactPairs, exactPruned, stats.Evaluated, stages)
	}
	if stats.Evaluated+stats.Pruned != dbLen {
		t.Fatalf("%s: evaluated %d + pruned %d != %d graphs", label, stats.Evaluated, stats.Pruned, dbLen)
	}
	for _, s := range stages {
		if s.Pairs < 0 || s.Pruned < 0 || s.DurationMS < 0 {
			t.Fatalf("%s: negative stage counters: %+v", label, s)
		}
	}
}

// TestTraceSkylineConsistent: on pruned skyline queries the
// per-stage attribution must reconcile exactly with the query's
// evaluated/pruned stats — the acceptance invariant of the trace layer.
func TestTraceSkylineConsistent(t *testing.T) {
	gs := testutil.SeededGraphs(7, 30)
	queries := testutil.SeededQueries(107, gs, 3)
	sh := testutil.NewDB(t, gs)
	for qi, q := range queries {
		tr := gdb.NewQueryTrace()
		opts := gdb.QueryOptions{Prune: true}
		opts.Trace = tr
		res, err := sh.SkylineQuery(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("q=%d: %v", qi, err)
		}
		label := fmt.Sprintf("skyline q=%d", qi)
		requireTraceConsistent(t, label, tr, res.Stats, len(gs))
		if _, _, _, byName := stageSums(tr.Stages()); byName["merge"].Pairs == 0 {
			t.Fatalf("%s: query recorded no merge stage", label)
		}
	}
}

// TestTraceRankedConsistent: the same invariant on best-first top-k and
// range scans, where the exact stage also excludes candidates via
// threshold-fed decision runs and the branch bound. The NoisyFamily
// rows are tiny databases where every candidate sits within a few edits
// of every other: each exclusion must count for exactly one stage
// (attributing one twice once drove the bound stage's count negative).
func TestTraceRankedConsistent(t *testing.T) {
	seeded := testutil.SeededGraphs(9, 30)
	family25, familyQueries := testutil.NoisyFamily(25)
	family12, _ := testutil.NoisyFamily(12)
	m := measure.DistEd
	for _, tc := range []struct {
		name    string
		gs      []*graph.Graph
		queries []*graph.Graph
		opts    gdb.QueryOptions
	}{
		{"seeded", seeded, testutil.SeededQueries(109, seeded, 3), gdb.QueryOptions{}},
		{"family25", family25, familyQueries, gdb.QueryOptions{}},
		{"family12", family12, familyQueries, gdb.QueryOptions{}},
	} {
		sh := testutil.NewDB(t, tc.gs)
		for qi, q := range tc.queries {
			tr := gdb.NewQueryTrace()
			opts := tc.opts
			opts.Trace = tr
			res, err := sh.TopKQuery(context.Background(), q, m, 5, opts)
			if err != nil {
				t.Fatalf("%s topk q=%d: %v", tc.name, qi, err)
			}
			label := fmt.Sprintf("%s topk q=%d", tc.name, qi)
			requireTraceConsistent(t, label, tr, res.Stats, len(tc.gs))
			requireLiveStagesOnly(t, label, tr)

			tr = gdb.NewQueryTrace()
			opts.Trace = tr
			rres, err := sh.RangeQuery(context.Background(), q, m, 6, opts)
			if err != nil {
				t.Fatalf("%s range q=%d: %v", tc.name, qi, err)
			}
			label = fmt.Sprintf("%s range q=%d", tc.name, qi)
			requireTraceConsistent(t, label, tr, rres.Stats, len(tc.gs))
			requireLiveStagesOnly(t, label, tr)
		}
	}
}

// requireLiveStagesOnly: the ranked scan goes from a candidate's bounds
// straight to the engines, so a trace names bound, exact and merge only
// — no refine, pivot or vector stage.
func requireLiveStagesOnly(t *testing.T, label string, tr *gdb.QueryTrace) {
	t.Helper()
	for _, st := range tr.Stages() {
		switch st.Stage {
		case "bound", "exact", "merge":
		default:
			t.Fatalf("%s: ranked trace recorded a %s stage: %+v", label, st.Stage, st)
		}
	}
}

// TestTraceUnprunedExactOnly: without pruning every pair is exact-stage
// work; the trace must say so and nothing else (no bound stage ran).
func TestTraceUnprunedExactOnly(t *testing.T) {
	gs := testutil.SeededGraphs(13, 16)
	sh := testutil.NewDB(t, gs)
	q := testutil.SeededQueries(113, gs, 1)[0]

	tr := gdb.NewQueryTrace()
	opts := gdb.QueryOptions{}
	opts.Trace = tr
	res, err := sh.SkylineQuery(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, exactPairs, _, byName := stageSums(tr.Stages())
	if exactPairs != res.Stats.Evaluated || exactPairs != len(gs) {
		t.Fatalf("unpruned skyline: exact pairs %d, want evaluated %d == %d", exactPairs, res.Stats.Evaluated, len(gs))
	}
	if _, ok := byName["bound"]; ok {
		t.Fatalf("unpruned skyline recorded a bound stage: %+v", byName["bound"])
	}
}

// TestTraceNilIsFree: a nil trace must not change results and must stay
// empty (the Observe no-op contract).
func TestTraceNilIsFree(t *testing.T) {
	var tr *gdb.QueryTrace
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil trace Stages() = %+v, want nil", got)
	}
	tr.Observe(gdb.StageExact, 0, 1, 1) // must not panic
}

// TestBranchBoundSparesDecisionRuns: on the cold-ranked shape — order-5
// clustered families, 1-edit queries, DistEd top-5 and radius 2 — the
// branch bound proves most claimed candidates out before any engine
// runs, so the exact stage looks at a small multiple of the candidates
// it scores. Without tier 1 the decision runs handled about twelve
// candidates per scored one here.
func TestBranchBoundSparesDecisionRuns(t *testing.T) {
	roots := dataset.MoleculeDB(80, 5, 5, 3501)
	gs := dataset.NoisyQueries(roots, 2000, 2, 3503)
	for i, g := range gs {
		g.SetName(fmt.Sprintf("g%05d", i))
	}
	sh := testutil.NewDB(t, gs)
	m := measure.DistEd
	exactPairs, evaluated := 0, 0
	for qi, q := range dataset.NoisyQueries(gs, 12, 1, 3505) {
		for _, kind := range []string{"topk", "range"} {
			tr := gdb.NewQueryTrace()
			opts := gdb.QueryOptions{Trace: tr}
			var (
				res gdb.TopKResult
				err error
			)
			if kind == "topk" {
				res, err = sh.TopKQuery(context.Background(), q, m, 5, opts)
			} else {
				res, err = sh.RangeQuery(context.Background(), q, m, 2, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s q=%d", kind, qi)
			requireTraceConsistent(t, label, tr, res.Stats, len(gs))
			_, pairs, _, _ := stageSums(tr.Stages())
			exactPairs += pairs
			evaluated += res.Stats.Evaluated
		}
	}
	if evaluated == 0 {
		t.Fatal("no candidate was scored")
	}
	if exactPairs > 4*evaluated {
		t.Fatalf("exact stage handled %d pairs for %d scored (%.1fx), want <= 4x", exactPairs, evaluated, float64(exactPairs)/float64(evaluated))
	}
	t.Logf("exact stage: %d pairs for %d scored (%.1fx)", exactPairs, evaluated, float64(exactPairs)/float64(evaluated))
}
