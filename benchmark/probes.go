package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
	"skygraph/internal/wal"
)

// Leaf probes time single layers in isolation, on inputs taken from the
// workload that just ran: (graph, query) pairs from its answers, its
// query graphs, its reference tables. They run in traced runs only,
// after the measured phase, single-threaded on an idle system. They
// call leaf functions only (README.md lists them).

// probeBudget is how long each probe runs (the self-test shortens it).
var probeBudget = 80 * time.Millisecond

// probe calls fn(0..n-1) round-robin for about probeBudget (at least
// one full pass) and returns microseconds and heap allocations per call.
func probe(n int, fn func(i int)) (us, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	calls := 0
	for time.Since(start) < probeBudget || calls < n {
		fn(calls % n)
		calls++
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(took.Microseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// sink keeps probe results alive so calls are not optimised away.
var sink any

type pair struct{ g, q *graph.Graph }

// answerPairs returns up to perQuery (answer graph, query) pairs from
// each reference's skyline: pairs the system had to evaluate exactly.
func answerPairs(refs []*reference, live []*graph.Graph, perQuery int) []pair {
	byName := make(map[string]*graph.Graph, len(live))
	for _, g := range live {
		byName[g.Name()] = g
	}
	var out []pair
	for _, ref := range refs {
		for i, p := range skyline.BNL(ref.pts) {
			if i == perQuery {
				break
			}
			out = append(out, pair{byName[p.ID], ref.q})
		}
	}
	return out
}

func runProbes(e *env, refs []*reference, live []*graph.Graph) map[string]float64 {
	out := map[string]float64{}
	if len(refs) == 0 {
		return out
	}
	pairs := answerPairs(refs, live, 4)
	sigs := make([][2]*measure.Signature, len(pairs))
	bounds := make([]measure.BoundStats, len(pairs))
	for i, pr := range pairs {
		sigs[i] = [2]*measure.Signature{measure.NewSignature(pr.g), measure.NewSignature(pr.q)}
		bounds[i] = measure.BoundPair(sigs[i][0], sigs[i][1])
	}
	out["measure.bound_pair_us"], _ = probe(len(pairs), func(i int) { sink = measure.BoundPair(sigs[i][0], sigs[i][1]) })
	out["measure.refine_us"], _ = probe(len(pairs), func(i int) { sink = measure.Refine(pairs[i].g, pairs[i].q, bounds[i]) })
	out["ged.exact_us"], out["ged.exact_allocs"] = probe(len(pairs), func(i int) { sink = ged.Exact(pairs[i].g, pairs[i].q, ged.Options{}) })
	out["mcs.exact_us"], out["mcs.exact_allocs"] = probe(len(pairs), func(i int) { sink = mcs.Exact(pairs[i].g, pairs[i].q, mcs.Options{}) })

	out["graph.queryhash_us"], _ = probe(len(refs), func(i int) { sink = graph.QueryHash(refs[i].q) })
	encoded := make([][]byte, len(refs))
	requests := make([][]byte, len(refs))
	for i, ref := range refs {
		encoded[i] = mustJSON(toWire(ref.q))
		requests[i] = queryBody(opSkyline, ref.q, false)
	}
	out["server.decode_us"], _ = probe(len(refs), func(i int) {
		var g graph.Graph
		if err := json.Unmarshal(encoded[i], &g); err != nil {
			panic(err) // the harness's own encoding of a valid graph
		}
		sink = &g
	})
	// The oracle just asked these queries, so the handler answers from
	// the cache: decode, QueryHash, lookup, merge and encode, no TCP.
	h := e.sut.handler()
	out["server.handler_hit_us"], _ = probe(len(refs), func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, queryPaths[opSkyline], bytes.NewReader(requests[i])))
		sink = rec
	})

	pts := refs[0].pts
	halves := [][]skyline.Point{skyline.Compute(pts[:len(pts)/2]), skyline.Compute(pts[len(pts)/2:])}
	out["skyline.compute_us"], _ = probe(len(refs), func(i int) { sink = skyline.Compute(refs[i].pts) })
	out["skyline.merge_us"], _ = probe(1, func(int) { sink = skyline.Merge(halves) })
	out["topk.bounded_us"], _ = probe(len(refs), func(i int) {
		b := topk.NewBounded(topK)
		for _, pt := range refs[i].pts {
			b.Offer(topk.Item{ID: pt.ID, Score: pt.Vec[0]})
		}
		sink = b.Items()
	})

	out["wal.append_us"] = probeWAL(live, wal.SyncNever)
	out["wal.fsync_us"] = probeWAL(live, wal.SyncAlways)
	return out
}

// probeWAL times appends of insert records to a fresh log in a temp
// directory; with SyncAlways each append includes its fsync. A failure
// reports 0 rather than failing the run: the probe is informational and
// write-mix exercises the real WAL.
func probeWAL(graphs []*graph.Graph, policy wal.SyncPolicy) float64 {
	dir, err := os.MkdirTemp("", "skybench-wal-")
	if err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: policy})
	if err != nil {
		return 0
	}
	defer log.Close()
	recs := make([]wal.Record, min(len(graphs), 64))
	for i := range recs {
		recs[i] = wal.Record{Op: wal.OpInsert, Seq: uint64(i + 1), Name: graphs[i].Name(), Data: []byte(graph.MarshalLGF(graphs[i]))}
	}
	failed := false
	us, _ := probe(len(recs), func(i int) {
		if _, err := log.Append(recs[i]); err != nil {
			failed = true
		}
	})
	if failed {
		return 0
	}
	return us
}
