package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"skygraph/internal/graph"
)

// env is one set-up instance of a workload: a running system, its
// client and how long each set-up step took.
type env struct {
	sut    *sut
	c      *httpClient
	bodies *bodies
	dir    string // data directory of a durable workload

	bulkLoadMS, indexWaitMS, warmMS float64
}

// setup builds the system, bulk-loads the collection over HTTP, waits
// for the pivot and vector tiers, and warms the pool workloads' cache.
// A durable workload additionally cuts a snapshot and restarts on its
// directory before warming, so its set-up time includes one recovery
// (snapshot load, re-embedding, pivot rebuild) — the cost a restart of
// the daemon pays.
func setup(p *plan, b *bodies) (*env, error) {
	e := &env{bodies: b}
	ok := false
	defer func() {
		if !ok {
			_ = e.teardown()
		}
	}()
	if p.durable {
		dir, err := os.MkdirTemp("", "skybench-"+p.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
	}
	if err := e.start(len(p.db)); err != nil {
		return nil, err
	}

	load := make([]wireGraph, len(p.db))
	for i, g := range p.db {
		load[i] = toWire(g)
	}
	t0 := time.Now()
	var ins wireInsertResponse
	if err := e.c.do(http.MethodPost, "/graphs", mustJSON(map[string]any{"graphs": load}), &ins); err != nil {
		return nil, err
	}
	if len(ins.Inserted) != len(p.db) {
		return nil, fmt.Errorf("bulk load acked %d of %d graphs", len(ins.Inserted), len(p.db))
	}
	e.bulkLoadMS = ms(time.Since(t0))
	t0 = time.Now()
	if err := e.awaitIndexes(); err != nil {
		return nil, err
	}
	e.indexWaitMS = ms(time.Since(t0))

	if p.durable {
		if err := e.sut.snapshot(); err != nil {
			return nil, err
		}
		if _, err := e.restart(len(p.db)); err != nil {
			return nil, err
		}
	}
	if p.pool > 0 {
		t0 = time.Now()
		if err := e.warm(p); err != nil {
			return nil, err
		}
		e.warmMS = ms(time.Since(t0))
	}
	ok = true
	return e, nil
}

func (e *env) start(n int) error {
	s, err := startSUT(e.dir, n)
	if err != nil {
		return err
	}
	e.sut, e.c = s, newHTTPClient(s.url)
	return nil
}

func (e *env) awaitIndexes() error {
	if err := e.c.waitReady(sutTimeout); err != nil {
		return err
	}
	e.sut.waitIndexes()
	return nil
}

// restart stops the system and opens its data directory again,
// returning how long the open took until the system was ready.
func (e *env) restart(n int) (time.Duration, error) {
	e.c.close()
	err := e.sut.stop()
	e.sut = nil
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := e.start(n); err != nil {
		return 0, err
	}
	err = e.awaitIndexes()
	return time.Since(t0), err
}

// warm builds the complete tables of every pool query and then sends
// one request of each kind, so the tables and the ranked answers are
// cached before the measured phase.
func (e *env) warm(p *plan) error {
	qs := make([]wireQuery, len(p.queries))
	for i, g := range p.queries {
		qs[i] = wireItemFor(opSkyline, g, false, false)
	}
	var wr wireWarmResponse
	if err := e.c.do(http.MethodPost, "/cache/warm", mustJSON(map[string]any{"queries": qs}), &wr); err != nil {
		return err
	}
	for i, r := range wr.Results {
		if r.Error != "" {
			return fmt.Errorf("warming query %d: %s", i, r.Error)
		}
	}
	for k := opSkyline; k < opBatch; k++ {
		for q := range p.queries {
			if err := e.c.do(http.MethodPost, queryPaths[k], e.bodies.single[k][q][0], nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *env) teardown() error {
	var err error
	if e.c != nil {
		e.c.close()
		e.c = nil
	}
	if e.sut != nil {
		err = e.sut.stop()
		e.sut = nil
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
		e.dir = ""
	}
	return err
}

// liveGraphs is the collection the system must hold after the phase:
// the loaded graphs plus acked inserts minus acked deletes.
func liveGraphs(p *plan, ph *phase) []*graph.Graph {
	gone := map[int32]bool{}
	var added []int32
	for i := range ph.spans {
		sp := &ph.spans[i]
		if !sp.ok {
			continue
		}
		switch sp.kind {
		case opInsert:
			added = append(added, p.ops[sp.op].g)
		case opDelete:
			gone[p.ops[sp.op].g] = true
		}
	}
	live := append([]*graph.Graph(nil), p.db...)
	for _, g := range added {
		if !gone[g] {
			live = append(live, p.inserts[g])
		}
	}
	return live
}

// recovery is what reopening a used data directory cost and found.
type recovery struct {
	totalMS, openMS, indexMS float64
	lost                     int // acked writes the recovered state does not reflect
}

// reopen stops the system without a final snapshot and opens the same
// directory again, as a restart after the run would: the log written
// during the phase is replayed on top of the set-up snapshot.
func (e *env) reopen(p *plan) (*recovery, error) {
	took, err := e.restart(len(p.db))
	if err != nil {
		return nil, err
	}
	return &recovery{totalMS: ms(took), openMS: e.sut.openMS, indexMS: e.sut.indexMS}, nil
}

// check compares the recovered name set with the expected collection.
func (r *recovery) check(c *httpClient, want []*graph.Graph) []string {
	names, err := c.names()
	if err != nil {
		return []string{err.Error()}
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	var bad []string
	for _, g := range want {
		if !have[g.Name()] {
			bad = append(bad, "acked insert lost after reopen: "+g.Name())
		}
		delete(have, g.Name())
	}
	for n := range have {
		bad = append(bad, "acked delete lost after reopen: "+n)
	}
	sort.Strings(bad)
	r.lost = len(bad)
	return bad
}
