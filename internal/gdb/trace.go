package gdb

import (
	"sync/atomic"
	"time"
)

// Per-query cascade tracing. A QueryTrace attached to
// QueryOptions.Trace records, per cascade stage, how much wall-clock
// work ran there and how many candidate pairs it settled. The stages
// mirror the filter-and-refine pipeline (prune.go / ranked.go):
//
//	bound   tier-0 signature bounds: histogram/degree intervals from the
//	        stored index, the candidate ordering of both scans, and the
//	        threshold cutoff that ends a ranked one; on ranked scans also
//	        tier 1, the branch GED bound a claimed candidate meets before
//	        any engine (on the skyline path that test is part of exact)
//	exact   engine work: exact GED/MCS runs, threshold- or front-fed
//	        decision runs, and score-memo replays; on the skyline path
//	        the whole progressive scan, front tests included
//	merge   combining per-shard answers (skyline merge, top-k heap
//	        merge, range concatenation) — recorded by the serving layer
//
// Counts are exact work attribution under one rule: every candidate a
// pruned evaluation does not score has exactly ONE fate, and each
// stage's Pruned is the number of candidates whose fate it was —
// counted per candidate, never derived as a difference between other
// stages' totals. On a ranked scan the fates are: excluded by an engine
// decision run (exact), or proved out by the branch bound at its claim
// or cut off by the signature bound and the best-first threshold
// (bound). On the skyline path there is one: discarded by the scan
// (exact); the bound stage orders the scan and prunes nothing. Hence,
// summed over stages, Pruned equals the query's Work.Pruned, and the
// exact stage's Pairs minus its Pruned equals Work.Evaluated. No count
// is ever negative. Durations are summed across shards (and, on ranked
// scans, across workers), so on a parallel evaluation they can exceed
// the request's wall-clock time — they answer "where did the work go",
// not "what was the critical path".
//
// All methods are nil-safe and concurrency-safe: one QueryTrace is
// shared by every shard (and every evaluation worker) of one query.

// Stage identifies one cascade stage of a traced query.
type Stage int

const (
	StageBound Stage = iota
	StageExact
	StageMerge
	numStages
)

var stageNames = [numStages]string{"bound", "exact", "merge"}

// String returns the stage's wire name.
func (s Stage) String() string { return stageNames[s] }

// stageAcc accumulates one stage's counters (atomics: shards and
// workers record concurrently).
type stageAcc struct {
	ns     atomic.Int64
	pairs  atomic.Int64
	pruned atomic.Int64
	events atomic.Int64 // observation count; stages never touched render nothing
}

// QueryTrace records per-stage work for one query. Create with
// NewQueryTrace, attach via QueryOptions.Trace, read back with Stages.
type QueryTrace struct {
	stages [numStages]stageAcc
}

// NewQueryTrace returns an empty trace.
func NewQueryTrace() *QueryTrace { return &QueryTrace{} }

// Observe adds one stage observation: d of stage work that looked at
// pairs candidate pairs and excluded pruned of them. Nil-safe (no-op on
// a nil trace), so call sites need no guards.
func (t *QueryTrace) Observe(s Stage, d time.Duration, pairs, pruned int) {
	if t == nil {
		return
	}
	a := &t.stages[s]
	a.ns.Add(int64(d))
	a.pairs.Add(int64(pairs))
	a.pruned.Add(int64(pruned))
	a.events.Add(1)
}

// TraceStage is one stage's totals in wire form.
type TraceStage struct {
	// Stage is the cascade stage name: bound, exact, merge.
	Stage string `json:"stage"`
	// DurationMS is the stage's work time, summed across shards and
	// workers.
	DurationMS float64 `json:"duration_ms"`
	// Pairs counts candidate pairs the stage processed.
	Pairs int `json:"pairs"`
	// Pruned counts pairs the stage excluded from further evaluation.
	Pruned int `json:"pruned"`
}

// Stages returns the touched stages in cascade order. Stages with no
// observations are omitted (e.g. merge on a library-level skyline
// table build).
func (t *QueryTrace) Stages() []TraceStage {
	if t == nil {
		return nil
	}
	out := make([]TraceStage, 0, numStages)
	for s := Stage(0); s < numStages; s++ {
		a := &t.stages[s]
		if a.events.Load() == 0 {
			continue
		}
		out = append(out, TraceStage{
			Stage:      s.String(),
			DurationMS: float64(a.ns.Load()) / 1e6,
			Pairs:      int(a.pairs.Load()),
			Pruned:     int(a.pruned.Load()),
		})
	}
	return out
}
