package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"skygraph/internal/gdb"
	"skygraph/internal/pivot"
	"skygraph/internal/server"
	"skygraph/internal/vector"
	"skygraph/internal/wal"
)

// This file is the only place the harness constructs the system under
// test. It wires the engine exactly as cmd/skygraphd does and calls
// constructors and waits only — every data-plane operation (load, warm,
// query, mutate, stats) goes over HTTP from the other files. README.md
// lists the internal symbols this file and probes.go may call.

// Fixed configuration for every workload.
const (
	sutShards  = 2
	sutCache   = 256
	sutPivots  = 8
	sutMemo    = 200000
	sutTimeout = 60 * time.Second
)

func sutVectorCells(n int) int { return max(4, n/100) }

// sut is one running instance: engine, server and a loopback listener.
type sut struct {
	db      *gdb.Sharded
	durable *gdb.Durable
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	url     string

	// openMS and indexMS split a durable start: OpenDurable (snapshot
	// load + WAL replay) and enabling the pivot/vector tiers on the
	// recovered graphs. Both 0 for an in-memory start.
	openMS, indexMS float64
}

// startSUT builds an empty in-memory system (dataDir == "") or opens
// dataDir durably with fsync=always, for a collection expected to hold
// about n graphs, and serves it on 127.0.0.1:0.
func startSUT(dataDir string, n int) (*sut, error) {
	s := &sut{}
	t0 := time.Now()
	if dataDir != "" {
		d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dataDir, Shards: sutShards, Sync: wal.SyncAlways})
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", dataDir, err)
		}
		s.durable, s.db = d, d.DB
	} else {
		s.db = gdb.NewSharded(sutShards)
	}
	t1 := time.Now()
	s.db.EnablePivots(pivot.Config{Pivots: sutPivots})
	s.db.EnableScoreMemo(sutMemo)
	s.db.EnableVector(vector.Config{Cells: sutVectorCells(n)})
	if dataDir != "" {
		s.openMS = ms(t1.Sub(t0))
		s.indexMS = ms(time.Since(t1))
	}
	s.srv = server.New(s.db, server.Config{
		CacheSize:      sutCache,
		DefaultTimeout: sutTimeout,
		MaxTimeout:     sutTimeout,
		Durable:        s.durable,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeEngine()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// handler exposes the routing for the no-TCP handler probe.
func (s *sut) handler() http.Handler { return s.httpSrv.Handler }

// waitIndexes blocks until background pivot columns and vector
// partition rebuilds have drained, so the measured phase starts (and
// the process ends) with no index work in flight.
func (s *sut) waitIndexes() {
	s.db.WaitPivots()
	s.db.WaitVector()
}

// snapshot cuts a snapshot so the next open replays nothing before it.
func (s *sut) snapshot() error { return s.durable.Snapshot() }

// stop drains HTTP, waits for the serve loop and index workers, and
// closes the WAL — the same order as skygraphd's shutdown, minus the
// final snapshot (write-mix wants the next open to replay its log).
func (s *sut) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	<-s.served
	s.waitIndexes()
	if cerr := s.closeEngine(); err == nil {
		err = cerr
	}
	return err
}

func (s *sut) closeEngine() error {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.durable != nil {
		return s.durable.Close()
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
