package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// perLayer lists every per-layer metric a traced run emits, with its
// unit, in BENCHMARK.json order. A metric that does not apply to a
// workload (WAL counters without a WAL) reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"client.transport_ms_per_op", "ms"},
	{"client.skyline_p50_ms", "ms"},
	{"client.topk_p50_ms", "ms"},
	{"client.range_p50_ms", "ms"},
	{"client.batch_p50_ms", "ms"},
	{"client.insert_p50_ms", "ms"},
	{"client.delete_p50_ms", "ms"},
	{"client.read_p95_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p95_ms", "ms"},
	{"client.trace_overhead_pct", "%"},
	{"server.duration_ms_per_query", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.delta_applied_per_write", "count"},
	{"server.delta_fallbacks_per_write", "count"},
	{"server.delta_fallback_ratio", "ratio"},
	{"server.warm_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.handler_hit_us", "us"},
	{"graph.queryhash_us", "us"},
	{"gdb.stage_vector_busy_ms_per_query", "ms"},
	{"gdb.stage_bound_busy_ms_per_query", "ms"},
	{"gdb.stage_pivot_busy_ms_per_query", "ms"},
	{"gdb.stage_refine_busy_ms_per_query", "ms"},
	{"gdb.stage_exact_busy_ms_per_query", "ms"},
	{"gdb.stage_merge_busy_ms_per_query", "ms"},
	{"gdb.pair_evals_per_query", "count"},
	{"gdb.pairs_pruned_per_query", "count"},
	{"gdb.memo_hit_ratio", "ratio"},
	{"gdb.useful_eval_ratio", "ratio"},
	{"gdb.bulk_load_ms", "ms"},
	{"gdb.recovery_ms", "ms"},
	{"gdb.recovery_replay_ms", "ms"},
	{"gdb.recovery_index_ms", "ms"},
	{"vector.cells_probed_per_query", "count"},
	{"vector.skipped_per_query", "count"},
	{"vector.fallbacks", "count"},
	{"pivot.dists_per_query", "count"},
	{"pivot.pruned_per_query", "count"},
	{"pivot.build_wait_ms", "ms"},
	{"measure.bound_pair_us", "us"},
	{"measure.refine_us", "us"},
	{"ged.exact_us", "us"},
	{"ged.exact_allocs", "count"},
	{"mcs.exact_us", "us"},
	{"mcs.exact_allocs", "count"},
	{"skyline.compute_us", "us"},
	{"skyline.merge_us", "us"},
	{"topk.bounded_us", "us"},
	{"wal.appends_per_write", "count"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// layerMetrics fills rec.Metrics with every per-layer metric: client
// breakdowns from the spans, server/gdb/vector/pivot/wal counters from
// the /stats difference over the phase, cascade busy time from the
// response traces, set-up and recovery timings, and the leaf probes.
func layerMetrics(rec *record, e *env, ph *phase, rcv *recovery, probes map[string]float64) {
	v := probes
	isRead := func(sp *span) bool { return !sp.kind.isWrite() }
	isWrite := func(sp *span) bool { return sp.kind.isWrite() }
	reads := float64(len(ph.latencies(isRead)))
	writeLat := ph.latencies(isWrite)
	writes := float64(len(writeLat))

	for k := opKind(0); k < numKinds; k++ {
		v["client."+k.String()+"_p50_ms"] = percentile(ph.latencies(func(sp *span) bool { return sp.kind == k }), 0.5)
	}
	v["client.read_p95_ms"] = percentile(ph.latencies(isRead), 0.95)
	v["client.write_p50_ms"] = percentile(writeLat, 0.50)
	v["client.write_p95_ms"] = percentile(writeLat, 0.95)

	var transport, server, rows, evaluated float64
	var stage [len(stageNames)]float64
	var tracedN float64
	for i := range ph.spans {
		sp := &ph.spans[i]
		if !sp.ok || sp.kind.isWrite() {
			continue
		}
		transport += sp.latencyMS() - sp.serverMS
		server += sp.serverMS
		if sp.evaluated > 0 {
			rows += float64(sp.rows)
			evaluated += float64(sp.evaluated)
		}
		if sp.traced {
			tracedN++
			for s := range stage {
				stage[s] += sp.stage[s]
			}
		}
	}
	v["client.transport_ms_per_op"] = ratio(transport, reads)
	v["server.duration_ms_per_query"] = ratio(server, reads)
	v["gdb.useful_eval_ratio"] = ratio(rows, evaluated)
	for s, name := range stageNames {
		v["gdb.stage_"+name+"_busy_ms_per_query"] = ratio(stage[s], tracedN)
	}
	on := mean(ph.latencies(func(sp *span) bool { return isRead(sp) && sp.traced }))
	off := mean(ph.latencies(func(sp *span) bool { return isRead(sp) && !sp.traced }))
	v["client.trace_overhead_pct"] = 100 * ratio(on-off, off)

	a, b := ph.after, ph.before
	d := func(after, before uint64) float64 { return float64(after - before) }
	hits, misses := d(a.Cache.Hits, b.Cache.Hits), d(a.Cache.Misses, b.Cache.Misses)
	v["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	applied, fallbacks := d(a.Cache.DeltaApplied, b.Cache.DeltaApplied), d(a.Cache.DeltaFallbacks, b.Cache.DeltaFallbacks)
	v["server.delta_applied_per_write"] = ratio(applied, writes)
	v["server.delta_fallbacks_per_write"] = ratio(fallbacks, writes)
	v["server.delta_fallback_ratio"] = ratio(fallbacks, applied+fallbacks)
	v["gdb.pair_evals_per_query"] = ratio(d(a.Requests.PairEvals, b.Requests.PairEvals), reads)
	v["gdb.pairs_pruned_per_query"] = ratio(d(a.Requests.PairsPruned, b.Requests.PairsPruned), reads)
	v["vector.cells_probed_per_query"] = ratio(d(a.Requests.VectorCells, b.Requests.VectorCells), reads)
	v["vector.skipped_per_query"] = ratio(d(a.Requests.VectorSkipped, b.Requests.VectorSkipped), reads)
	v["vector.fallbacks"] = d(a.Requests.VectorFallbacks, b.Requests.VectorFallbacks)
	v["pivot.dists_per_query"] = ratio(d(a.Requests.PivotDists, b.Requests.PivotDists), reads)
	v["pivot.pruned_per_query"] = ratio(d(a.Requests.PivotPruned, b.Requests.PivotPruned), reads)
	if a.Memo != nil && b.Memo != nil {
		mh, mm := d(a.Memo.Hits, b.Memo.Hits), d(a.Memo.Misses, b.Memo.Misses)
		v["gdb.memo_hit_ratio"] = ratio(mh, mh+mm)
	}
	if a.Durability != nil && b.Durability != nil {
		v["wal.appends_per_write"] = ratio(d(a.Durability.WALAppends, b.Durability.WALAppends), writes)
		v["wal.fsyncs_per_write"] = ratio(d(a.Durability.WALFsyncs, b.Durability.WALFsyncs), writes)
		v["wal.bytes_per_write"] = ratio(float64(a.Durability.WALSizeBytes-b.Durability.WALSizeBytes), writes)
	}

	v["gdb.bulk_load_ms"] = e.bulkLoadMS
	v["pivot.build_wait_ms"] = e.indexWaitMS
	v["server.warm_ms"] = e.warmMS
	if rcv != nil {
		v["gdb.recovery_ms"] = rcv.totalMS
		v["gdb.recovery_replay_ms"] = rcv.openMS
		v["gdb.recovery_index_ms"] = rcv.indexMS
	}

	ok := float64(len(ph.spans) - ph.failed)
	secs := ph.wall.Seconds()
	v["runtime.alloc_kb_per_op"] = ratio(float64(ph.memEnd.TotalAlloc-ph.memStart.TotalAlloc)/1024, ok)
	v["runtime.gc_cycles_per_s"] = ratio(float64(ph.memEnd.NumGC-ph.memStart.NumGC), secs)
	v["runtime.gc_pause_ms_per_s"] = ratio(float64(ph.memEnd.PauseTotalNs-ph.memStart.PauseTotalNs)/1e6, secs)

	for _, m := range perLayer {
		rec.Metrics[m.name] = metric{v[m.name], m.unit}
		delete(v, m.name)
	}
	for name := range v {
		panic("benchmark: metric " + name + " is computed but not listed in perLayer")
	}
}

// writeTrace writes the spans of a traced run as JSON lines: one client
// span per op, with the server span and the cascade stage spans the
// response described as its children (their start is not known to the
// client, only their duration; stage time is busy time summed over
// workers). All spans of one op share its trace id.
func writeTrace(dir, workload string, ph *phase) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i := range ph.spans {
		sp := &ph.spans[i]
		fmt.Fprintf(w, `{"trace":%d,"span":"client","kind":%q,"ok":%t,"start_us":%d,"end_us":%d}`+"\n",
			sp.op, sp.kind, sp.ok, sp.start.Microseconds(), sp.end.Microseconds())
		if sp.kind.isWrite() || !sp.ok {
			continue
		}
		fmt.Fprintf(w, `{"trace":%d,"span":"server","parent":"client","dur_us":%.0f}`+"\n", sp.op, sp.serverMS*1000)
		for s, name := range stageNames {
			if sp.stage[s] > 0 {
				fmt.Fprintf(w, `{"trace":%d,"span":"gdb.%s","parent":"server","busy_us":%.0f}`+"\n", sp.op, name, sp.stage[s]*1000)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printReport prints one workload's metrics by name with their units,
// the attempted/failed counts and, for a traced run, where a read
// request's time goes.
func printReport(w io.Writer, rec *record) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d correct=%t\n", rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %v\n", k, rec.Info[k])
	}
	if !rec.Trace {
		return
	}
	get := func(name string) float64 { return rec.Metrics[name].Value }
	server, transport := get("server.duration_ms_per_query"), get("client.transport_ms_per_op")
	total := server + transport
	fmt.Fprintf(w, "  where a read request's time goes (mean ms):\n")
	row := func(indent, name string, v float64) {
		fmt.Fprintf(w, "  %s%-*s %10.4f  %5.1f%%\n", indent, 34-len(indent), name, v, 100*ratio(v, total))
	}
	row("  ", "client wall", total)
	row("    ", "transport + client", transport)
	row("    ", "server wall", server)
	busy := 0.0
	for _, name := range stageNames {
		s := get("gdb.stage_" + name + "_busy_ms_per_query")
		busy += s
		row("      ", "gdb."+name+" (busy, all workers)", s)
	}
	row("      ", "server outside the cascade", max(0, server-busy))
}
