package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/server"
)

func fastOpts() Options {
	return Options{
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
	}
}

func writeErr(w http.ResponseWriter, code int, class string, retryAfterMS int64) {
	if retryAfterMS > 0 {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "injected", Class: class, RetryAfterMS: retryAfterMS})
}

// TestQueryRetriesThroughTransientFailures: the first two attempts 503,
// the third answers; the client's caller sees only the success.
func TestQueryRetriesThroughTransientFailures(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			writeErr(w, http.StatusServiceUnavailable, server.ClassTransient, 1)
			return
		}
		_ = json.NewEncoder(w).Encode(server.SkylineResponse{Basis: []string{"DistEd"}})
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts())
	resp, err := c.Skyline(context.Background(), server.QueryRequest{Graph: dataset.PaperQuery()})
	if err != nil {
		t.Fatalf("Skyline: %v", err)
	}
	if len(resp.Basis) != 1 || hits.Load() != 3 {
		t.Fatalf("basis %v after %d attempts", resp.Basis, hits.Load())
	}
}

// TestMaxAttempts: a permanently failing query surfaces the APIError
// after exactly MaxAttempts tries.
func TestMaxAttempts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeErr(w, http.StatusServiceUnavailable, server.ClassTransient, 0)
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts())
	_, err := c.Skyline(context.Background(), server.QueryRequest{Graph: dataset.PaperQuery()})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 4 {
		t.Fatalf("attempts = %d, want 4", hits.Load())
	}
}

// TestRetryBudget: with only one token of burst and no earn-back,
// retries stop when the budget drains, wrapped in
// ErrRetryBudgetExhausted.
func TestRetryBudget(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeErr(w, http.StatusServiceUnavailable, server.ClassTransient, 0)
	}))
	defer ts.Close()
	opts := fastOpts()
	opts.MaxAttempts = 10
	opts.RetryBudget = 1.5
	opts.RetryRatio = 0.0001
	c := New(ts.URL, opts)
	_, err := c.Skyline(context.Background(), server.QueryRequest{Graph: dataset.PaperQuery()})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("budget error does not wrap the APIError: %v", err)
	}
	if hits.Load() != 2 { // 1 attempt + the single budgeted retry
		t.Fatalf("attempts = %d, want 2", hits.Load())
	}
}

// TestRetrySafetyRules pins the classification table.
func TestRetrySafetyRules(t *testing.T) {
	transport := errors.New("connection refused")
	cases := []struct {
		name     string
		err      error
		mutation bool
		keyed    bool
		want     bool
	}{
		{"query-transport", transport, false, false, true},
		{"unkeyed-mutation-transport", transport, true, false, false},
		{"keyed-mutation-transport", transport, true, true, true},
		{"query-500", &APIError{Status: 500, Class: server.ClassInternal}, false, false, true},
		{"keyed-mutation-500", &APIError{Status: 500, Class: server.ClassInternal}, true, true, false},
		{"keyed-mutation-corrupt", &APIError{Status: 500, Class: server.ClassCorrupt}, true, true, false},
		{"query-corrupt", &APIError{Status: 500, Class: server.ClassCorrupt}, false, false, false},
		{"keyed-mutation-503", &APIError{Status: 503, Class: server.ClassTransient}, true, true, true},
		{"keyed-mutation-degraded", &APIError{Status: 503, Class: server.ClassDegraded}, true, true, true},
		{"unkeyed-mutation-503", &APIError{Status: 503, Class: server.ClassTransient}, true, false, false},
		{"query-429", &APIError{Status: 429, Class: server.ClassOverloaded}, false, false, true},
		{"query-400", &APIError{Status: 400, Class: server.ClassBadRequest}, false, false, false},
		{"mutation-409", &APIError{Status: 409, Class: server.ClassConflict}, true, true, false},
		{"query-404", &APIError{Status: 404, Class: server.ClassNotFound}, false, false, false},
	}
	for _, tc := range cases {
		if got, _ := retryable(tc.err, tc.mutation, tc.keyed); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryAfterHonored: the server's hint (well above the base
// backoff) sets the floor for the retry delay.
func TestRetryAfterHonored(t *testing.T) {
	var first atomic.Int64
	var gap atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if first.CompareAndSwap(0, now) {
			writeErr(w, http.StatusTooManyRequests, server.ClassOverloaded, 150)
			return
		}
		gap.Store(now - first.Load())
		_ = json.NewEncoder(w).Encode(server.SkylineResponse{})
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts())
	if _, err := c.Skyline(context.Background(), server.QueryRequest{Graph: dataset.PaperQuery()}); err != nil {
		t.Fatalf("Skyline: %v", err)
	}
	if got := time.Duration(gap.Load()); got < 150*time.Millisecond {
		t.Fatalf("retry fired after %v, before the 150ms Retry-After", got)
	}
}

// TestInsertKeyStableAcrossRetries: the auto-generated idempotency key
// must be identical on every attempt — that is what makes the retry
// safe — and the call must come back replayed at most once applied.
func TestInsertKeyStableAcrossRetries(t *testing.T) {
	var keys []string
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.InsertRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		keys = append(keys, req.IdempotencyKey)
		if hits.Add(1) == 1 {
			writeErr(w, http.StatusServiceUnavailable, server.ClassTransient, 1)
			return
		}
		_ = json.NewEncoder(w).Encode(server.InsertResponse{Inserted: []string{"g"}})
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts())
	resp, err := c.Insert(context.Background(), server.InsertRequest{Graph: dataset.PaperDB()[0]})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if len(resp.Inserted) != 1 {
		t.Fatalf("inserted %v", resp.Inserted)
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across attempts: %q", keys)
	}
}

// TestDeadlinePropagation: every attempt carries X-Skygraph-Timeout-Ms
// no larger than the attempt timeout.
func TestDeadlinePropagation(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(server.TimeoutHeader)
		ms, _ := time.ParseDuration(v + "ms")
		got.Store(int64(ms))
		_ = json.NewEncoder(w).Encode(server.SkylineResponse{})
	}))
	defer ts.Close()
	opts := fastOpts()
	opts.AttemptTimeout = 300 * time.Millisecond
	c := New(ts.URL, opts)
	if _, err := c.Skyline(context.Background(), server.QueryRequest{Graph: dataset.PaperQuery()}); err != nil {
		t.Fatal(err)
	}
	d := time.Duration(got.Load())
	if d <= 0 || d > 300*time.Millisecond {
		t.Fatalf("propagated deadline %v, want (0, 300ms]", d)
	}
}

// TestCallerDeadlineStopsRetries: a context that expires mid-backoff
// surfaces the last real error without further attempts.
func TestCallerDeadlineStopsRetries(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeErr(w, http.StatusServiceUnavailable, server.ClassTransient, 5000)
	}))
	defer ts.Close()
	c := New(ts.URL, fastOpts())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Skyline(ctx, server.QueryRequest{Graph: dataset.PaperQuery()})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want the server's APIError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (Retry-After outlives the caller)", hits.Load())
	}
}

// TestAPIErrorParsing: class and hint come from the JSON body, with
// the Retry-After header as fallback.
func TestAPIErrorParsing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"degraded-readonly","class":"degraded"}`))
	}))
	defer ts.Close()
	opts := fastOpts()
	opts.MaxAttempts = 1
	c := New(ts.URL, opts)
	_, err := c.Insert(context.Background(), server.InsertRequest{Graph: dataset.PaperDB()[0]})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.Class != server.ClassDegraded || apiErr.Message != "degraded-readonly" {
		t.Fatalf("parsed %+v", apiErr)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s from the header fallback", apiErr.RetryAfter)
	}
}

// TestJitterBounds: the jittered delay stays in [d/2, d].
func TestJitterBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		if j := jitter(d); j < d/2 || j > d {
			t.Fatalf("jitter(%v) = %v out of [%v, %v]", d, j, d/2, d)
		}
	}
}

// TestEndToEndAgainstRealServer drives the real handler stack: a keyed
// insert retried against a server whose first append fails transient
// lands exactly once.
func TestEndToEndAgainstRealServer(t *testing.T) {
	s := server.New(gdb.New(), server.Config{CacheSize: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	ctx := context.Background()
	if _, err := c.Insert(ctx, server.InsertRequest{Graphs: dataset.PaperDB()}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	fresh := dataset.PaperDB()[0].Clone()
	fresh.SetName("idem-x")
	req := server.InsertRequest{Graph: fresh, IdempotencyKey: "fixed"}
	first, err := c.Insert(ctx, req)
	if err != nil || first.Replayed {
		t.Fatalf("keyed insert: resp %+v err %v", first, err)
	}
	// The same keyed request replays rather than conflicting.
	resp, err := c.Insert(ctx, req)
	if err != nil || !resp.Replayed {
		t.Fatalf("replay: resp %+v err %v", resp, err)
	}
	sky, err := c.Skyline(ctx, server.QueryRequest{Graph: dataset.PaperQuery()})
	if err != nil || len(sky.Skyline) == 0 {
		t.Fatalf("skyline: %+v err %v", sky, err)
	}
	del, err := c.Delete(ctx, "idem-x", "")
	if err != nil || del.Deleted != "idem-x" {
		t.Fatalf("delete: %+v err %v", del, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.DB.Graphs == 0 {
		t.Fatalf("stats: err %v", err)
	}
}
