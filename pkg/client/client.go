// Package client is the Go client for skygraphd, built for the failure
// modes the daemon actually produces: per-attempt timeouts with the
// deadline propagated to the server, capped exponential backoff with
// full jitter, a process-wide retry budget so retries cannot amplify an
// outage, Retry-After honoring on 429/503, and strict retry-safety
// rules — queries are always retryable (they have no side effects),
// mutations only under an idempotency key (generated automatically),
// which the server checks against the database's key table so a
// retried mutation is applied at most once.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"skygraph/internal/server"
)

// APIError is a non-2xx answer from the daemon, carrying the machine
// class and retry hint the server attached.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Class is the server's error class (server.Class*); empty on
	// pre-class daemons or non-JSON bodies.
	Class string
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's hint, when it sent one.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Class != "" {
		return fmt.Sprintf("skygraphd: %s (%d %s)", e.Message, e.Status, e.Class)
	}
	return fmt.Sprintf("skygraphd: %s (%d)", e.Message, e.Status)
}

// ErrRetryBudgetExhausted wraps the final error when a retryable
// failure could not be retried because the budget was empty.
var ErrRetryBudgetExhausted = errors.New("client: retry budget exhausted")

// Options tunes a Client. The zero value is production-ready.
type Options struct {
	// AttemptTimeout bounds each HTTP attempt (default 10s). The
	// remaining attempt budget is propagated to the server in
	// X-Skygraph-Timeout-Ms so it abandons work the client stopped
	// waiting for.
	AttemptTimeout time.Duration
	// MaxAttempts caps tries per call, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 50ms); Backoff
	// doubles per retry up to MaxBackoff (default 2s), with full jitter.
	// A server Retry-After above the computed delay wins.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryBudget is the burst of retries the client may spend
	// (default 10); RetryRatio is how much budget each fresh call earns
	// back, i.e. the steady-state retries-per-request ratio
	// (default 0.1). Together they stop retries from amplifying an
	// outage: once the budget drains, failures surface immediately.
	RetryBudget float64
	RetryRatio  float64
	// HTTPClient overrides the transport (default http.DefaultClient;
	// per-attempt timeouts come from AttemptTimeout, so the client's own
	// Timeout should stay 0).
	HTTPClient *http.Client
}

// Client talks to one skygraphd. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts Options

	mu     sync.Mutex
	tokens float64
}

// New returns a Client for the daemon at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts Options) *Client {
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 10 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 10
	}
	if opts.RetryRatio <= 0 {
		opts.RetryRatio = 0.1
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc, opts: opts, tokens: opts.RetryBudget}
}

// earn credits the budget for a fresh call; spend takes one retry from
// it. The budget makes the steady-state retry rate at most RetryRatio
// of the request rate, with RetryBudget of burst.
func (c *Client) earn() {
	c.mu.Lock()
	c.tokens = min(c.tokens+c.opts.RetryRatio, c.opts.RetryBudget)
	c.mu.Unlock()
}

func (c *Client) spend() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// NewIdempotencyKey returns a fresh random mutation key.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to time.
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// jitter picks a uniform delay in [d/2, d] (full jitter keeps a fleet
// of retrying clients from synchronizing).
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	n, err := rand.Int(rand.Reader, big.NewInt(int64(d/2)))
	if err != nil {
		return d
	}
	return d/2 + time.Duration(n.Int64())
}

// retryable reports whether err may be retried for a request of the
// given kind, and the server's Retry-After hint when it sent one.
//
// Queries have no side effects, so every transport error, timeout and
// retryable status (429, 500, 502, 503, 504) is retryable. Mutations
// are retryable only when keyed — the key makes the retry exactly-once
// on the server — and never on corruption-class failures (retrying a
// broken store cannot help) or request errors (409, 4xx).
func retryable(err error, mutation, keyed bool) (bool, time.Duration) {
	if err == nil {
		return false, 0
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		// Transport-level: connection refused/reset, attempt timeout.
		// For a mutation the request may or may not have been applied —
		// only a key makes the retry safe.
		if mutation && !keyed {
			return false, 0
		}
		return true, 0
	}
	if apiErr.Class == server.ClassCorrupt {
		return false, 0
	}
	switch apiErr.Status {
	case http.StatusTooManyRequests,
		http.StatusServiceUnavailable,
		http.StatusBadGateway,
		http.StatusGatewayTimeout:
		if mutation && !keyed {
			return false, 0
		}
		return true, apiErr.RetryAfter
	case http.StatusInternalServerError:
		// Queries are side-effect free; a 500 mutation (unclassified or
		// corrupt-adjacent) is not worth retrying even keyed.
		return !mutation, apiErr.RetryAfter
	}
	return false, 0
}

// call runs one request with retries. body is re-marshaled per attempt
// never — it is a fixed byte slice; headers are copied per attempt.
func (c *Client) call(ctx context.Context, method, path string, body any, headers map[string]string, mutation, keyed bool, out any) error {
	c.earn()
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		lastErr = c.attempt(ctx, method, path, payload, headers, out)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's deadline, not the attempt's: stop.
			return lastErr
		}
		ok, serverHint := retryable(lastErr, mutation, keyed)
		if !ok || attempt >= c.opts.MaxAttempts {
			return lastErr
		}
		if !c.spend() {
			return fmt.Errorf("%w: %w", ErrRetryBudgetExhausted, lastErr)
		}
		delay := jitter(backoff)
		if serverHint > delay {
			delay = serverHint
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return lastErr
		}
		if backoff *= 2; backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

// attempt is one HTTP round trip under the per-attempt timeout, with
// the effective deadline propagated in X-Skygraph-Timeout-Ms.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, headers map[string]string, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	if dl, ok := actx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(server.TimeoutHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		var eb server.ErrorResponse
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			apiErr.Message, apiErr.Class = eb.Error, eb.Class
			if eb.RetryAfterMS > 0 {
				apiErr.RetryAfter = time.Duration(eb.RetryAfterMS) * time.Millisecond
			}
		} else {
			apiErr.Message = string(bytes.TrimSpace(raw))
		}
		if apiErr.RetryAfter == 0 {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				apiErr.RetryAfter = time.Duration(s) * time.Second
			}
		}
		return apiErr
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// Skyline answers a skyline query (retryable).
func (c *Client) Skyline(ctx context.Context, req server.QueryRequest) (*server.SkylineResponse, error) {
	var out server.SkylineResponse
	if err := c.call(ctx, http.MethodPost, "/query/skyline", req, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK answers a top-k query (retryable).
func (c *Client) TopK(ctx context.Context, req server.QueryRequest) (*server.TopKResponse, error) {
	var out server.TopKResponse
	if err := c.call(ctx, http.MethodPost, "/query/topk", req, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Range answers a range query (retryable).
func (c *Client) Range(ctx context.Context, req server.QueryRequest) (*server.RangeResponse, error) {
	var out server.RangeResponse
	if err := c.call(ctx, http.MethodPost, "/query/range", req, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch answers a query batch (retryable — item errors are reported in
// place by the server, so a batch answer never mutates state).
func (c *Client) Batch(ctx context.Context, req server.BatchRequest) (*server.BatchResponse, error) {
	var out server.BatchResponse
	if err := c.call(ctx, http.MethodPost, "/query/batch", req, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert inserts graphs. When req.IdempotencyKey is empty a random key
// is generated, making the call safely retryable: the key is persisted
// with the WAL records it produces, so the server replays the earlier
// ack (or completes a partially applied batch) instead of applying
// twice — in process and across restarts.
func (c *Client) Insert(ctx context.Context, req server.InsertRequest) (*server.InsertResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = NewIdempotencyKey()
	}
	var out server.InsertResponse
	if err := c.call(ctx, http.MethodPost, "/graphs", req, nil, true, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete deletes a graph by name, keyed via the idempotency header
// (key generated when empty) so retries are safe.
func (c *Client) Delete(ctx context.Context, name, idempotencyKey string) (*server.DeleteResponse, error) {
	if idempotencyKey == "" {
		idempotencyKey = NewIdempotencyKey()
	}
	hdr := map[string]string{server.IdempotencyHeader: idempotencyKey}
	var out server.DeleteResponse
	if err := c.call(ctx, http.MethodDelete, "/graphs/"+url.PathEscape(name), nil, hdr, true, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Get fetches one graph as raw JSON (retryable).
func (c *Client) Get(ctx context.Context, name string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.call(ctx, http.MethodGet, "/graphs/"+url.PathEscape(name), nil, nil, false, false, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// List lists stored graph names (retryable).
func (c *Client) List(ctx context.Context) (*server.ListResponse, error) {
	var out server.ListResponse
	if err := c.call(ctx, http.MethodGet, "/graphs", nil, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches /stats (retryable). Health.InsertSeqHighWater is the
// reference point for external mutation-retry bookkeeping.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var out server.StatsResponse
	if err := c.call(ctx, http.MethodGet, "/stats", nil, nil, false, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
