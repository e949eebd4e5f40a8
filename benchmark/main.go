// Command benchmark is skygraph's end-to-end and per-layer benchmark:
// it builds the serving stack in-process exactly as cmd/skygraphd wires
// it, serves it on a loopback TCP listener and drives seeded op lists
// against it over HTTP/JSON. See README.md for the workloads, metric
// definitions and how layers map to end-to-end numbers.
//
//	bash benchmark/run.sh --workload hot-repeat --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload all --out runs.jsonl
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median, and the last instance is the one measured.
const setupReps = 3

// processLimit aborts a run that would overstay the driver's 180 s.
const processLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of the -out file: a result plus where and how it
// was measured.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
	// Info carries sample counts, digests and failure messages.
	Info map[string]any    `json:"info"`
	Meta map[string]string `json:"meta"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	maxOps  int
	scale   float64
	outDir  string
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 12, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, leaf probes")
	maxOps := flag.Int("ops", 0, "stop the measured phase after this many ops (0 = run for -seconds); gives exactly repeating counters")
	scale := flag.Float64("scale", 1, "scale collection, pool and op-list sizes (the self-test uses 0.05)")
	out := flag.String("out", "", "append one JSON record per workload run to this file")
	outDir := flag.String("out-dir", ".bench_build", "directory for trace files")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	printInputs := flag.Bool("print-inputs", false, "print the seed-1 input digests in the format of benchmark/inputs.json and exit")
	flag.Parse()

	if *printInputs {
		digests := map[string]string{}
		for _, s := range specs {
			digests[s.name] = buildPlan(s, 1, 1).digest()
		}
		out, _ := json.MarshalIndent(digests, "", "  ") // a map of strings always encodes
		fmt.Println(string(out))
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.jsonl b.jsonl")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	time.AfterFunc(processLimit, func() { fatalf("benchmark: still running after %s, giving up", processLimit) })

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if s, ok := specByName(*workload); ok {
		todo = []spec{s}
	} else {
		fatalf("benchmark: unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, maxOps: *maxOps, scale: *scale, outDir: *outDir}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range todo {
		rec, err := runWorkload(s, opt)
		if err != nil {
			fatalf("benchmark: %s: %v", s.name, err)
		}
		printReport(os.Stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatalf("benchmark: %v", err)
			}
		}
		total.Correct = total.Correct && rec.Correct
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		for name, m := range rec.Metrics {
			if len(todo) > 1 {
				name = s.name + "/" + name
			}
			total.Metrics[name] = m
		}
	}
	fmt.Println(string(mustJSON(total)))
	if !total.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(mustJSON(rec), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMeta describes where a record was measured. run.sh passes the
// commit in SKYBENCH_COMMIT (the binary is built without VCS stamping,
// which fails outright on checkouts git refuses to read).
func runMeta() map[string]string {
	commit := os.Getenv("SKYBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"commit":     commit,
	}
}

// runWorkload sets the workload up setupReps times, measures the last
// instance, verifies answers and tears everything down, so the next
// workload starts from a fresh engine, cache, memo and listener.
func runWorkload(s spec, opt options) (*record, error) {
	p := buildPlan(s, opt.seed, opt.scale)
	inputs := p.digest()
	if err := checkFrozen(s.name, inputs, opt); err != nil {
		return nil, err
	}
	if opt.trace {
		p.clients = 1 // per-layer numbers without ops contending with each other
	}
	b := encodeBodies(p, opt.trace)
	var e *env
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			if err := e.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(p, b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = e.teardown() }() // error paths; the success path checks it below

	ph, err := drive(e.c, p, b, opt.trace, time.Duration(opt.seconds*float64(time.Second)), opt.maxOps)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	rec := &record{
		Workload: s.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		result: result{Attempted: len(ph.spans), Failed: ph.failed, Metrics: map[string]metric{}},
		Info:   map[string]any{"inputs_sha256": inputs, "setup_runs_s": setups},
		Meta:   runMeta(),
	}
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("no op was issued in %gs", opt.seconds)
	}

	// Answer checks run on the live instance, outside the timed phase.
	// After write-mix the collection is base + acked inserts − acked
	// deletes, and the check repeats on the reopened directory.
	live := liveGraphs(p, ph)
	var refs []*reference
	for _, q := range sampleQueries(p, len(ph.spans)) {
		refs = append(refs, buildReference(live, q))
	}
	digest, bad := checkAll(e.c, refs)
	var rcv *recovery
	if s.durable {
		if rcv, err = e.reopen(p); err != nil {
			return nil, fmt.Errorf("reopening the data directory: %w", err)
		}
		bad = append(bad, rcv.check(e.c, live)...)
		_, again := checkAll(e.c, refs)
		bad = append(bad, again...)
		rec.Info["lost_acked_writes"] = rcv.lost
	} else {
		rec.Info["answers_sha256"] = digest
	}
	rec.Failed += len(bad)
	rec.Attempted += len(refs)
	rec.Correct = rec.Failed == 0
	if msgs := append(ph.failures, bad...); len(msgs) > 0 {
		rec.Info["failures"] = msgs[:min(len(msgs), 10)]
	}

	if opt.trace {
		layerMetrics(rec, e, ph, rcv, runProbes(e, refs, live))
		path, err := writeTrace(opt.outDir, s.name, ph)
		if err != nil {
			return nil, err
		}
		rec.Info["trace_file"] = path
	} else {
		endToEndMetrics(rec, ph, setups)
	}
	sampleCounts(rec, ph)
	return rec, e.teardown()
}

// endToEndMetrics fills the metrics a client of the system would see.
func endToEndMetrics(rec *record, ph *phase, setups []float64) {
	ok := float64(len(ph.spans) - ph.failed)
	reads := ph.latencies(func(sp *span) bool { return !sp.kind.isWrite() })
	set := func(name string, v float64, unit string) { rec.Metrics[name] = metric{v, unit} }
	_, setup, _ := quartiles(setups)
	set("setup_s", setup, "s")
	set("ops_per_s", ok/ph.wall.Seconds(), "1/s")
	set("read_p50_ms", percentile(reads, 0.50), "ms")
	set("cpu_ms_per_op", ms(ph.cpu)/ok, "ms")
	set("live_heap_mb", float64(ph.liveHeap)/(1<<20), "MB")
}

func sampleCounts(rec *record, ph *phase) {
	counts := map[string]int{}
	for i := range ph.spans {
		if ph.spans[i].ok {
			counts[ph.spans[i].kind.String()]++
		}
	}
	rec.Info["samples"] = counts
	rec.Info["measured_s"] = ph.wall.Seconds()
}

// inputsJSON maps workload → digest of its inputs at seed 1, scale 1.
//
//go:embed inputs.json
var inputsJSON []byte

// checkFrozen refuses to run seed 1 at full scale when the generated
// inputs no longer match the recorded digest: a generator change in
// dataset or graph would otherwise silently change what is measured.
func checkFrozen(workload, digest string, opt options) error {
	if opt.seed != 1 || opt.scale != 1 {
		return nil
	}
	var frozen map[string]string
	if err := json.Unmarshal(inputsJSON, &frozen); err != nil {
		return fmt.Errorf("benchmark/inputs.json: %w", err)
	}
	if frozen[workload] != digest {
		return fmt.Errorf("inputs of seed 1 changed: digest %s, benchmark/inputs.json records %q — a generator in dataset/graph was altered; re-record only in a change that alters nothing else", digest, frozen[workload])
	}
	return nil
}
