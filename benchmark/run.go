package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// bodies holds every request body of a plan, encoded before the timed
// phase so client-side encoding is not part of any latency.
type bodies struct {
	// cold[i] is op i's body (unique-query workloads).
	cold [][]byte
	// single[kind][q][traced] and item[kind][q][traced] are the pool
	// workloads' request bodies and batch-item fragments.
	single, item [opBatch][][2][]byte
	insert       [][]byte
}

// traced reports whether op i asks the server for its stage trace: in a
// traced run every second op does, so the same run yields the traced
// and the untraced latency of one op stream.
func traced(traceRun bool, i int) bool { return traceRun && i%2 == 0 }

func encodeBodies(p *plan, traceRun bool) *bodies {
	b := &bodies{}
	if p.pool == 0 {
		b.cold = make([][]byte, len(p.ops))
		for i, o := range p.ops {
			b.cold[i] = queryBody(o.kind, p.queries[o.q[0]], traced(traceRun, i))
		}
		return b
	}
	for k := opSkyline; k < opBatch; k++ {
		b.single[k] = make([][2][]byte, len(p.queries))
		b.item[k] = make([][2][]byte, len(p.queries))
		for q, g := range p.queries {
			for t, on := range []bool{false, true} {
				b.single[k][q][t] = mustJSON(wireItemFor(k, g, on, false))
				b.item[k][q][t] = mustJSON(wireItemFor(k, g, on, true))
			}
		}
	}
	b.insert = make([][]byte, len(p.inserts))
	for i, g := range p.inserts {
		b.insert[i] = mustJSON(map[string]any{"graph": toWire(g)})
	}
	return b
}

func (b *bodies) of(i int, o op, tr bool) []byte {
	if b.cold != nil {
		return b.cold[i]
	}
	t := 0
	if tr {
		t = 1
	}
	switch o.kind {
	case opBatch:
		var buf bytes.Buffer
		buf.WriteString(`{"queries":[`)
		for j, k := range batchKinds {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(b.item[k][o.q[j]][t])
		}
		buf.WriteString(`]}`)
		return buf.Bytes()
	case opInsert:
		return b.insert[o.g]
	case opDelete:
		return nil
	}
	return b.single[o.kind][o.q[0]][t]
}

// stageNames is the cascade in order; span.stage is indexed by it.
var stageNames = [...]string{"vector", "bound", "pivot", "refine", "exact", "merge"}

// span is one executed op: the client-side interval plus what the
// response said about the server side.
type span struct {
	op         int32
	kind       opKind
	traced, ok bool
	start, end time.Duration // since the phase started
	serverMS   float64       // response stats.duration_ms (reads)
	evaluated  int
	rows       int // answer rows returned
	stage      [len(stageNames)]float64
}

func (s *span) latencyMS() float64 { return ms(s.end - s.start) }

// phase is the measured part of a run and what was observed around it.
type phase struct {
	spans    []span
	wall     time.Duration
	cpu      time.Duration
	before   wireStats
	after    wireStats
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	liveHeap uint64
	failures []string // first few failure messages, for the report
	failed   int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the closed loop: each client walks its own stride of the
// op list, waiting for every reply, until `limit` has elapsed or maxOps
// ops (0 = the whole list) were issued.
func drive(c *httpClient, p *plan, b *bodies, traceRun bool, limit time.Duration, maxOps int) (*phase, error) {
	if maxOps <= 0 || maxOps > len(p.ops) {
		maxOps = len(p.ops)
	}
	ph := &phase{}
	var err error
	if ph.before, err = c.stats(); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ph.memStart)
	perClient := make([][]span, p.clients)
	fails := make([][]string, p.clients)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < p.clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cl; i < maxOps; i += p.clients {
				if time.Since(start) >= limit {
					return
				}
				sp := span{op: int32(i), kind: p.ops[i].kind, traced: traced(traceRun, i)}
				body := b.of(i, p.ops[i], sp.traced)
				sp.start = time.Since(start)
				err := execOp(c, p, p.ops[i], body, &sp)
				sp.end = time.Since(start)
				sp.ok = err == nil
				if err != nil && len(fails[cl]) < 5 {
					fails[cl] = append(fails[cl], fmt.Sprintf("op %d (%s): %v", i, sp.kind, err))
				}
				perClient[cl] = append(perClient[cl], sp)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.memEnd)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// The spans are the harness's own and grow with the ops a run got
	// through; without them the figure is the system's.
	ph.liveHeap = m.HeapAlloc
	for cl := range perClient {
		ph.liveHeap -= uint64(cap(perClient[cl])) * uint64(unsafe.Sizeof(span{}))
	}
	if ph.after, err = c.stats(); err != nil {
		return nil, err
	}
	for cl := range perClient {
		ph.spans = append(ph.spans, perClient[cl]...)
		ph.failures = append(ph.failures, fails[cl]...)
	}
	sort.Slice(ph.spans, func(i, j int) bool { return ph.spans[i].op < ph.spans[j].op })
	for i := range ph.spans {
		if !ph.spans[i].ok {
			ph.failed++
		}
	}
	return ph, nil
}

// execOp sends one op and sanity-checks the answer's shape; the full
// answer check against the reference runs outside the timed phase
// (oracle.go).
func execOp(c *httpClient, p *plan, o op, body []byte, sp *span) error {
	switch o.kind {
	case opInsert:
		var r wireInsertResponse
		if err := c.do(http.MethodPost, "/graphs", body, &r); err != nil {
			return err
		}
		if want := p.inserts[o.g].Name(); len(r.Inserted) != 1 || r.Inserted[0] != want {
			return fmt.Errorf("insert of %s acked %v", want, r.Inserted)
		}
		return nil
	case opDelete:
		return c.do(http.MethodDelete, deletePath(p.inserts[o.g].Name()), nil, nil)
	case opBatch:
		var r wireBatchResponse
		if err := c.do(http.MethodPost, queryPaths[opBatch], body, &r); err != nil {
			return err
		}
		if len(r.Results) != batchItems {
			return fmt.Errorf("batch answered %d of %d items", len(r.Results), batchItems)
		}
		sp.serverMS = r.Stats.DurationMS
		for j, res := range r.Results {
			a := res.answer()
			if res.Error != "" || a == nil {
				return fmt.Errorf("batch item %d: %q", j, res.Error)
			}
			if err := checkShape(batchKinds[j], a, sp); err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
		}
		return nil
	}
	var a wireAnswer
	if err := c.do(http.MethodPost, queryPaths[o.kind], body, &a); err != nil {
		return err
	}
	sp.serverMS = a.Stats.DurationMS
	return checkShape(o.kind, &a, sp)
}

// checkShape validates what can be validated without the reference and
// folds the answer's work counters into the span.
func checkShape(kind opKind, a *wireAnswer, sp *span) error {
	sp.evaluated += a.Stats.Evaluated
	for _, st := range a.Trace {
		for i, name := range stageNames {
			if st.Stage == name {
				sp.stage[i] += st.DurationMS
			}
		}
	}
	switch kind {
	case opSkyline:
		sp.rows += len(a.Skyline)
		if len(a.Skyline) == 0 {
			return fmt.Errorf("empty skyline over a non-empty collection")
		}
	case opTopK:
		sp.rows += len(a.Items)
		if len(a.Items) != topK {
			return fmt.Errorf("top-%d returned %d items", topK, len(a.Items))
		}
		for i := 1; i < len(a.Items); i++ {
			if a.Items[i].Score < a.Items[i-1].Score {
				return fmt.Errorf("top-k scores not ascending")
			}
		}
	case opRange:
		sp.rows += len(a.Items)
		for _, it := range a.Items {
			if it.Score > rangeRadius {
				return fmt.Errorf("range item %s at %g exceeds radius %g", it.ID, it.Score, rangeRadius)
			}
		}
	}
	return nil
}

// percentile returns the q-quantile (nearest rank) of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latencies returns the sorted latencies (ms) of the successful spans
// that keep reports true for.
func (ph *phase) latencies(keep func(*span) bool) []float64 {
	var out []float64
	for i := range ph.spans {
		if sp := &ph.spans[i]; sp.ok && keep(sp) {
			out = append(out, sp.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}
