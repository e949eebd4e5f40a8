package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/fault"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/wal"
)

// newResilientServer opens dir with a fast-reacting health machine for
// the degradation tests: degrade after 2 failures, probe every 10ms.
func newResilientServer(t *testing.T, dir string) (*gdb.Durable, *Server, *httptest.Server) {
	t.Helper()
	d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	s := New(d.DB, Config{
		CacheSize:    16,
		Durable:      d,
		DegradeAfter: 2,
		ProbeEvery:   10 * time.Millisecond,
		RetryAfter:   250 * time.Millisecond,
		FaultAdmin:   true,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		_ = d.Close()
	})
	return d, s, ts
}

func namedGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g := dataset.PaperDB()[0].Clone()
	g.SetName(name)
	return g
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postAny is postJSON that decodes the body on every status, so tests
// can assert error classes.
func postAny(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func doDelete(t *testing.T, url string, headers map[string]string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// TestDegradedReadonlyLifecycle walks the whole state machine over a
// live server: a persistently failing WAL turns K consecutive mutation
// failures into degraded-readonly (mutations 503 + Retry-After, queries
// fine, /readyz not ready), the background probe notices the heal and
// re-admits writes, and the next persisted mutation returns to serving.
func TestDegradedReadonlyLifecycle(t *testing.T) {
	defer fault.Reset()
	_, s, ts := newResilientServer(t, t.TempDir())

	var ins InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graphs: dataset.PaperDB()}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed insert: status %d", resp.StatusCode)
	}

	// Break the disk. Two failed mutations cross the K=2 threshold.
	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.EIO})
	for i := 0; i < 2; i++ {
		var body ErrorResponse
		resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, fmt.Sprintf("doomed-%d", i))}, &body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("faulted insert %d: status %d, want 503", i, resp.StatusCode)
		}
		if body.Class != ClassTransient {
			t.Fatalf("faulted insert %d: class %q, want %q", i, body.Class, ClassTransient)
		}
		if body.RetryAfterMS != 250 {
			t.Fatalf("faulted insert %d: retry_after_ms %d, want 250", i, body.RetryAfterMS)
		}
	}
	if got := s.HealthState(); got != HealthDegraded {
		t.Fatalf("state after %d failures: %v", 2, got)
	}

	// Degraded: mutations are refused up front with the degraded class...
	var dbody ErrorResponse
	resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "refused")}, &dbody)
	if resp.StatusCode != http.StatusServiceUnavailable || dbody.Class != ClassDegraded {
		t.Fatalf("degraded insert: status %d class %q", resp.StatusCode, dbody.Class)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("degraded insert Retry-After = %q, want 1s (250ms rounded up)", resp.Header.Get("Retry-After"))
	}
	if resp := doDelete(t, ts.URL+"/graphs/"+ins.Inserted[0], nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded delete: status %d", resp.StatusCode)
	}

	// ...queries keep serving from memory...
	var sky SkylineResponse
	if resp := postAny(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &sky); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d", resp.StatusCode)
	}
	if len(sky.Skyline) == 0 {
		t.Fatal("degraded query returned an empty skyline")
	}

	// ...and /readyz and /stats say why.
	if rresp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		rresp.Body.Close()
		if rresp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz while degraded: status %d", rresp.StatusCode)
		}
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Health == nil || stats.Health.State != "degraded_readonly" {
		t.Fatalf("stats health block: %+v", stats.Health)
	}
	if stats.Health.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", stats.Health.Degradations)
	}
	if stats.Health.LastPersistError == "" {
		t.Fatal("no last_persist_error while degraded")
	}
	if stats.Requests.DegradedRejected != 2 {
		t.Fatalf("degraded_rejected = %d, want 2", stats.Requests.DegradedRejected)
	}
	if stats.Fault == nil || stats.Fault.Armed != 1 {
		t.Fatalf("stats fault block: %+v", stats.Fault)
	}

	// Heal the disk: the probe re-arms writes, the next mutation lands
	// and the machine returns to serving.
	fault.Reset()
	waitFor(t, "probe to leave degraded", func() bool { return s.HealthState() != HealthDegraded })
	var ok InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "healed")}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after heal: status %d", resp.StatusCode)
	}
	if got := s.HealthState(); got != HealthServing {
		t.Fatalf("state after healed mutation: %v", got)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Health.Probes == 0 {
		t.Fatal("no probes counted across a degradation")
	}
	if rresp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		rresp.Body.Close()
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz after heal: status %d", rresp.StatusCode)
		}
	}
}

// TestRecoveringRelapsesToDegraded pins the trust-but-verify edge: a
// mutation that fails while recovering drops straight back to degraded
// without re-counting to K.
func TestRecoveringRelapsesToDegraded(t *testing.T) {
	defer fault.Reset()
	_, s, ts := newResilientServer(t, t.TempDir())

	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.EIO})
	for i := 0; i < 2; i++ {
		postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, fmt.Sprintf("doomed-%d", i))}, nil)
	}
	if s.HealthState() != HealthDegraded {
		t.Fatal("not degraded after K failures")
	}

	// Let exactly one probe succeed, then break the disk again before
	// the verifying mutation arrives.
	fault.Reset()
	waitFor(t, "probe success", func() bool { return s.HealthState() == HealthRecovering })
	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: syscall.EIO, Limit: 1})
	resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "relapse")}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("relapse insert: status %d", resp.StatusCode)
	}
	if s.HealthState() != HealthDegraded {
		t.Fatalf("one failure in recovering left state %v, want degraded", s.HealthState())
	}
}

// TestCorruptClassDoesNotDegrade: corruption-class persist failures
// answer 500/corrupt and must not move the health machine — probing
// cannot heal a corrupt store.
func TestCorruptClassDoesNotDegrade(t *testing.T) {
	defer fault.Reset()
	_, s, ts := newResilientServer(t, t.TempDir())

	fault.Set(fault.WALAppend, fault.Config{Mode: fault.ModeError, Err: wal.ErrCorrupt})
	for i := 0; i < 4; i++ {
		var body ErrorResponse
		resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, fmt.Sprintf("corrupt-%d", i))}, &body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("corrupt insert %d: status %d, want 500", i, resp.StatusCode)
		}
		if body.Class != ClassCorrupt {
			t.Fatalf("corrupt insert %d: class %q", i, body.Class)
		}
	}
	if got := s.HealthState(); got != HealthServing {
		t.Fatalf("corruption-class failures moved the machine to %v", got)
	}
}

// TestLoadShed pins the front-door admission control: with the
// inflight-query cap saturated, queries, batches and warms answer 429
// with the overloaded class and a Retry-After, and the shed counter
// shows up in /stats.
func TestLoadShed(t *testing.T) {
	db := gdb.New()
	for _, g := range dataset.PaperDB() {
		if _, err := db.Insert(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, Config{CacheSize: 16, MaxInflightQueries: 2, RetryAfter: 2 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate the cap without racing real slow queries.
	s.inflightQ.Add(2)
	for _, ep := range []string{"/query/skyline", "/query/batch", "/cache/warm"} {
		var body ErrorResponse
		resp := postAny(t, ts.URL+ep, map[string]any{}, &body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s at cap: status %d, want 429", ep, resp.StatusCode)
		}
		if body.Class != ClassOverloaded {
			t.Fatalf("%s at cap: class %q", ep, body.Class)
		}
		if resp.Header.Get("Retry-After") != "2" {
			t.Fatalf("%s at cap: Retry-After %q", ep, resp.Header.Get("Retry-After"))
		}
	}
	s.inflightQ.Add(-2)

	// Below the cap, queries pass and the shed count is visible.
	var sky SkylineResponse
	if resp := postAny(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, &sky); resp.StatusCode != http.StatusOK {
		t.Fatalf("query below cap: status %d", resp.StatusCode)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Requests.LoadShed != 3 {
		t.Fatalf("load_shed = %d, want 3", stats.Requests.LoadShed)
	}
	// Mutations are not queries and must never be shed by the cap.
	s.inflightQ.Add(2)
	resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "not-shed")}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert at query cap: status %d", resp.StatusCode)
	}
	s.inflightQ.Add(-2)
}

// TestIdempotentMutations covers the key table end to end, on a durable
// server and on an in-memory one: a keyed insert retried after a
// success replays its ack instead of 409ing; the same works for deletes
// (key in the header) retried after the graph is gone; and a key the
// server has no evidence for gets no benefit of the doubt — a keyed
// insert of an existing name is a real 409 and a keyed delete of a
// never-existing graph a real 404.
func TestIdempotentMutations(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		_, _, ts := newResilientServer(t, t.TempDir())
		checkIdempotentMutations(t, ts)
	})
	t.Run("memory", func(t *testing.T) {
		_, ts := newTestServerWith(t, Config{CacheSize: 16}, nil)
		checkIdempotentMutations(t, ts)
	})
}

func checkIdempotentMutations(t *testing.T, ts *httptest.Server) {
	ireq := InsertRequest{Graph: namedGraph(t, "idem-a"), IdempotencyKey: "k1"}
	var first InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", ireq, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed insert: status %d", resp.StatusCode)
	}
	if first.Replayed {
		t.Fatal("first keyed insert marked replayed")
	}
	var again InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", ireq, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed insert retry: status %d", resp.StatusCode)
	}
	if !again.Replayed || len(again.Inserted) != 1 || again.Inserted[0] != "idem-a" {
		t.Fatalf("keyed insert retry: %+v", again)
	}
	// Unkeyed duplicate still conflicts.
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "idem-a")}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("unkeyed duplicate: status %d, want 409", resp.StatusCode)
	}

	// Keyed delete, retried after the graph is gone.
	hdr := map[string]string{IdempotencyHeader: "k2"}
	var del DeleteResponse
	if resp := doDelete(t, ts.URL+"/graphs/idem-a", hdr, &del); resp.StatusCode != http.StatusOK || del.Replayed {
		t.Fatalf("keyed delete: status %d replayed %v", resp.StatusCode, del.Replayed)
	}
	var del2 DeleteResponse
	if resp := doDelete(t, ts.URL+"/graphs/idem-a", hdr, &del2); resp.StatusCode != http.StatusOK || !del2.Replayed {
		t.Fatalf("keyed delete retry: status %d replayed %v", resp.StatusCode, del2.Replayed)
	}
	// Unkeyed delete of the absent graph is a plain 404.
	if resp := doDelete(t, ts.URL+"/graphs/idem-a", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unkeyed absent delete: status %d, want 404", resp.StatusCode)
	}
	// A keyed delete of a graph that never existed is a real 404: the
	// server has no evidence k3 ever deleted anything, so it must not
	// invent a success.
	if resp := doDelete(t, ts.URL+"/graphs/never-was", map[string]string{IdempotencyHeader: "k3"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("keyed absent delete: status %d, want 404", resp.StatusCode)
	}

	// A fresh key inserting a name someone else created is a genuine
	// conflict, not a lost ack — the key has no evidence behind it, and
	// answering 200 would silently drop the caller's (different) graph.
	ireq2 := InsertRequest{Graph: namedGraph(t, "idem-b")}
	if resp := postAny(t, ts.URL+"/graphs", ireq2, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("setup insert failed")
	}
	ireq2.IdempotencyKey = "fresh-key-other-writer"
	if resp := postAny(t, ts.URL+"/graphs", ireq2, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("fresh-key insert of existing name: status %d, want 409", resp.StatusCode)
	}
}

// TestIdempotencySurvivesRestart pins the durable half of the replay
// story: idempotency keys ride in the WAL records, so after a restart a
// keyed retry is answered from recovered evidence — while keys the WAL
// has never seen still get real 409/404 answers.
func TestIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, s, ts := newResilientServer(t, dir)

	ireq := InsertRequest{Graph: namedGraph(t, "dur-a"), IdempotencyKey: "ins-key"}
	if resp := postAny(t, ts.URL+"/graphs", ireq, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed insert: status %d", resp.StatusCode)
	}
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "dur-b"), IdempotencyKey: "del-target"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("setup insert: status %d", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/graphs/dur-b", map[string]string{IdempotencyHeader: "del-key"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed delete: status %d", resp.StatusCode)
	}

	// Restart the way skygraphd does: final snapshot (which reclaims the
	// WAL segments carrying the keyed records — the evidence must ride
	// in the manifest to survive this), then close, then reopen.
	ts.Close()
	s.Close()
	if err := d.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close durable: %v", err)
	}
	_, _, ts2 := newResilientServer(t, dir)

	// The insert retry is recognized from the recovered WAL key: the
	// name is skipped, not 409ed, and the response is a replay.
	var rec InsertResponse
	if resp := postAny(t, ts2.URL+"/graphs", ireq, &rec); resp.StatusCode != http.StatusOK || !rec.Replayed {
		t.Fatalf("keyed insert after restart: status %d replayed %v", resp.StatusCode, rec.Replayed)
	}
	if len(rec.Inserted) != 1 || rec.Inserted[0] != "dur-a" || len(rec.Skipped) != 1 || rec.Skipped[0] != "dur-a" {
		t.Fatalf("keyed insert after restart: %+v", rec)
	}
	// The delete retry replays from the recovered key even though the
	// graph is long gone.
	var del DeleteResponse
	if resp := doDelete(t, ts2.URL+"/graphs/dur-b", map[string]string{IdempotencyHeader: "del-key"}, &del); resp.StatusCode != http.StatusOK || !del.Replayed || del.Deleted != "dur-b" {
		t.Fatalf("keyed delete after restart: status %d %+v", resp.StatusCode, del)
	}
	// A key the WAL never saw is still held to the truth after restart.
	fresh := InsertRequest{Graph: namedGraph(t, "dur-a"), IdempotencyKey: "never-logged"}
	if resp := postAny(t, ts2.URL+"/graphs", fresh, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("fresh-key insert after restart: status %d, want 409", resp.StatusCode)
	}
	if resp := doDelete(t, ts2.URL+"/graphs/dur-b", map[string]string{IdempotencyHeader: "never-logged"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fresh-key delete after restart: status %d, want 404", resp.StatusCode)
	}
}

// TestKeyedRetryAckSurvivesRestart: a keyed retry gets one ack whether
// or not the daemon restarted in between. After a keyed insert, a keyed
// delete and one unkeyed mutation, each retry is a replay carrying the
// generation GET /graphs reports at that moment; in process and after a
// restart with a snapshot the two acks agree in every other field.
func TestKeyedRetryAckSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, s, ts := newResilientServer(t, dir)
	ireq := InsertRequest{Graph: namedGraph(t, "ack-a"), IdempotencyKey: "ack-ins"}
	delKey := map[string]string{IdempotencyHeader: "ack-del"}
	if resp := postAny(t, ts.URL+"/graphs", ireq, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed insert: status %d", resp.StatusCode)
	}
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "ack-b")}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("setup insert: status %d", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/graphs/ack-b", delKey, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed delete: status %d", resp.StatusCode)
	}
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "ack-c")}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("unkeyed insert: status %d", resp.StatusCode)
	}

	// retry replays both keyed mutations against url and checks each
	// ack's generation is the one GET /graphs reports.
	retry := func(url string) (InsertResponse, DeleteResponse) {
		t.Helper()
		var ins InsertResponse
		if resp := postAny(t, url+"/graphs", ireq, &ins); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert retry: status %d", resp.StatusCode)
		}
		var del DeleteResponse
		if resp := doDelete(t, url+"/graphs/ack-b", delKey, &del); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete retry: status %d", resp.StatusCode)
		}
		var list ListResponse
		getJSON(t, url+"/graphs", &list)
		if ins.Generation != list.Generation || del.Generation != list.Generation {
			t.Fatalf("replay generations insert %d, delete %d; GET /graphs reports %d",
				ins.Generation, del.Generation, list.Generation)
		}
		return ins, del
	}
	ins1, del1 := retry(ts.URL)

	ts.Close()
	s.Close()
	if err := d.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close durable: %v", err)
	}
	_, _, ts2 := newResilientServer(t, dir)
	ins2, del2 := retry(ts2.URL)

	want := InsertResponse{Inserted: []string{"ack-a"}, Skipped: []string{"ack-a"}, Replayed: true}
	for _, got := range []InsertResponse{ins1, ins2} {
		got.Generation = 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("insert replay %+v; want %+v", got, want)
		}
	}
	wantDel := DeleteResponse{Deleted: "ack-b", Replayed: true}
	for _, got := range []DeleteResponse{del1, del2} {
		got.Generation = 0
		if got != wantDel {
			t.Errorf("delete replay %+v; want %+v", got, wantDel)
		}
	}
}

// TestPartialInsertRetryCompletes pins the multi-graph repair path: when
// a batch insert dies partway (fault on the second WAL append), a keyed
// retry skips the names already applied under the key and inserts only
// the remainder — instead of 409ing on its own earlier work and leaving
// the request permanently uncompletable.
func TestPartialInsertRetryCompletes(t *testing.T) {
	defer fault.Reset()
	_, _, ts := newResilientServer(t, t.TempDir())

	if resp := postAny(t, ts.URL+"/admin/fault", FaultAdminRequest{
		Spec: "wal/append=error:err=ENOSPC,after=1,limit=1",
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("arm failpoint: status %d", resp.StatusCode)
	}

	ireq := InsertRequest{
		Graphs:         []*graph.Graph{namedGraph(t, "part-a"), namedGraph(t, "part-b")},
		IdempotencyKey: "partial-key",
	}
	var errBody map[string]any
	resp := postAny(t, ts.URL+"/graphs", ireq, &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partial insert: status %d, want 503", resp.StatusCode)
	}
	applied, _ := errBody["inserted"].([]any)
	if len(applied) != 1 || applied[0] != "part-a" {
		t.Fatalf("partial insert applied %v, want [part-a]", applied)
	}

	// The retry completes: part-a is skipped on the key's evidence,
	// part-b is inserted, and the whole request is acked.
	var done InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", ireq, &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d", resp.StatusCode)
	}
	if done.Replayed {
		t.Fatalf("retry that inserted part-b marked replayed: %+v", done)
	}
	if len(done.Inserted) != 2 || len(done.Skipped) != 1 || done.Skipped[0] != "part-a" {
		t.Fatalf("retry: %+v", done)
	}
	if resp := postAny(t, ts.URL+"/query/skyline", QueryRequest{Graph: dataset.PaperQuery()}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after repair: status %d", resp.StatusCode)
	}
	// A further retry is a pure replay of the completed request.
	var again InsertResponse
	if resp := postAny(t, ts.URL+"/graphs", ireq, &again); resp.StatusCode != http.StatusOK || !again.Replayed {
		t.Fatalf("third attempt: status %d replayed %v", resp.StatusCode, again.Replayed)
	}
}

// TestTimeoutHeader pins the deadline-propagation helper: the header
// fills timeout_ms only when the body carries none, and malformed or
// non-positive values are ignored.
func TestTimeoutHeader(t *testing.T) {
	mk := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/query/skyline", nil)
		if v != "" {
			r.Header.Set(TimeoutHeader, v)
		}
		return r
	}
	if got := headerTimeoutMS(mk("1500")); got != 1500 {
		t.Fatalf("headerTimeoutMS(1500) = %d", got)
	}
	for _, v := range []string{"", "abc", "-5", "0", "1.5"} {
		if got := headerTimeoutMS(mk(v)); got != 0 {
			t.Fatalf("headerTimeoutMS(%q) = %d, want 0", v, got)
		}
	}
	// Body timeout wins over the header.
	req := QueryRequest{TimeoutMS: 42}
	if hv := headerTimeoutMS(mk("1000")); req.TimeoutMS > 0 && hv != 1000 {
		t.Fatalf("header parse changed: %d", hv)
	}
	s := New(gdb.New(), Config{MaxTimeout: time.Second})
	defer s.Close()
	if d := s.timeout(&QueryRequest{TimeoutMS: 5000}); d != time.Second {
		t.Fatalf("MaxTimeout clamp broken: %v", d)
	}
}

// TestFaultAdminEndpoint drives the registry over HTTP: arm a point,
// watch a mutation fail with it, read the snapshot back, disarm.
func TestFaultAdminEndpoint(t *testing.T) {
	defer fault.Reset()
	_, _, ts := newResilientServer(t, t.TempDir())

	var snap FaultAdminResponse
	resp := postAny(t, ts.URL+"/admin/fault", FaultAdminRequest{Spec: "wal/append=error:err=ENOSPC,limit=1"}, &snap)
	if resp.StatusCode != http.StatusOK || snap.Armed != 1 {
		t.Fatalf("arm: status %d snapshot %+v", resp.StatusCode, snap)
	}
	if resp := postAny(t, ts.URL+"/graphs", InsertRequest{Graph: namedGraph(t, "victim")}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert under admin-armed fault: status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/admin/fault", &snap)
	if len(snap.Points) != 1 || snap.Points[0].Fires != 1 {
		t.Fatalf("post-fire snapshot: %+v", snap)
	}
	if resp := postAny(t, ts.URL+"/admin/fault", FaultAdminRequest{Spec: "off"}, &snap); resp.StatusCode != http.StatusOK || snap.Armed != 0 {
		t.Fatalf("disarm: status %d snapshot %+v", resp.StatusCode, snap)
	}
	var bad ErrorResponse
	if resp := postAny(t, ts.URL+"/admin/fault", FaultAdminRequest{Spec: "wal/append=warp"}, &bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", resp.StatusCode)
	}

	// Servers without FaultAdmin must not mount the endpoint at all.
	plain := New(gdb.New(), Config{})
	defer plain.Close()
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	if resp := getJSON(t, pts.URL+"/admin/fault", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/admin/fault without FaultAdmin: status %d, want 404", resp.StatusCode)
	}
}

// TestErrorClassDefaults spot-checks classForCode's mapping on live
// endpoints that predate the class field.
func TestErrorClassDefaults(t *testing.T) {
	_, _, ts := newResilientServer(t, t.TempDir())
	var body ErrorResponse
	if resp := postAny(t, ts.URL+"/query/topk", QueryRequest{}, &body); resp.StatusCode != http.StatusBadRequest || body.Class != ClassBadRequest {
		t.Fatalf("bad request: status %d class %q", resp.StatusCode, body.Class)
	}
	nresp, err := http.Get(ts.URL + "/graphs/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	var nbody ErrorResponse
	if err := json.NewDecoder(nresp.Body).Decode(&nbody); err != nil {
		t.Fatal(err)
	}
	if nresp.StatusCode != http.StatusNotFound || nbody.Class != ClassNotFound {
		t.Fatalf("not found: status %d class %q", nresp.StatusCode, nbody.Class)
	}
}

// TestHealthCloseConcurrent pins Close's documented idempotence under
// actual concurrency: racing Closes must not double-close the stop
// channel and panic.
func TestHealthCloseConcurrent(t *testing.T) {
	d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := newHealth(d, 2, 10*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Close()
		}()
	}
	wg.Wait()
	h.Close() // and once more after everyone is done
}
