package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
)

// newDurableServer opens (or recovers) dir and serves it.
func newDurableServer(t *testing.T, dir string) (*gdb.Durable, *httptest.Server) {
	t.Helper()
	d, err := gdb.OpenDurable(gdb.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	s := New(d.DB, Config{CacheSize: 16, Durable: d})
	ts := httptest.NewServer(s.Handler())
	return d, ts
}

// TestServerRestartDurability is the HTTP-level warm-restart test:
// mutations applied through the API survive a close-and-reopen of the
// data directory, with identical /stats
// occupancy and an identical query answer, and /metrics exposing the
// WAL and recovery series.
func TestServerRestartDurability(t *testing.T) {
	dir := t.TempDir()
	d1, ts1 := newDurableServer(t, dir)

	var ins InsertResponse
	resp := postJSON(t, ts1.URL+"/graphs", InsertRequest{Graphs: dataset.PaperDB()}, &ins)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}
	if len(ins.Inserted) != 7 {
		t.Fatalf("inserted %d graphs, want 7", len(ins.Inserted))
	}
	req, err := http.NewRequest(http.MethodDelete, ts1.URL+"/graphs/"+ins.Inserted[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}

	var stats1 StatsResponse
	getJSON(t, ts1.URL+"/stats", &stats1)
	if stats1.DB.Graphs != 6 {
		t.Fatalf("pre-restart graphs = %d, want 6", stats1.DB.Graphs)
	}
	if stats1.Durability == nil || stats1.Durability.WALAppends != 8 {
		t.Fatalf("pre-restart durability block: %+v", stats1.Durability)
	}
	qreq := QueryRequest{Graph: dataset.PaperDB()[0]}
	var sky1 SkylineResponse
	postJSON(t, ts1.URL+"/query/skyline", qreq, &sky1)

	metrics := func(ts *httptest.Server) string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	m1 := metrics(ts1)
	for _, want := range []string{"skygraph_wal_appends_total 8", "skygraph_wal_fsyncs_total", "skygraph_recovery_replayed_records 0"} {
		if !strings.Contains(m1, want) {
			t.Errorf("pre-restart /metrics missing %q", want)
		}
	}

	ts1.Close()
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, ts2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer d2.Close()

	var stats2 StatsResponse
	getJSON(t, ts2.URL+"/stats", &stats2)
	if stats2.DB.Graphs != 6 {
		t.Fatalf("post-restart graphs = %d, want 6", stats2.DB.Graphs)
	}
	if stats2.Durability == nil || stats2.Durability.RecoveryReplayedRecords != 8 {
		t.Fatalf("post-restart durability block: %+v", stats2.Durability)
	}
	var sky2 SkylineResponse
	postJSON(t, ts2.URL+"/query/skyline", qreq, &sky2)
	if !reflect.DeepEqual(sky1.Skyline, sky2.Skyline) {
		t.Fatalf("skyline answer changed across restart:\npre:  %+v\npost: %+v", sky1.Skyline, sky2.Skyline)
	}
	if !strings.Contains(metrics(ts2), "skygraph_recovery_replayed_records 8") {
		t.Error("post-restart /metrics missing recovery replay count")
	}

	// Readiness after recovery.
	rresp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery: status %d", rresp.StatusCode)
	}
}

// TestServerDeleteNotPersisted verifies the handler maps a failed
// write-ahead append to a 5xx, not a 404: the graph is still there and
// the client must not believe the delete happened. A closed WAL is a
// transient-class failure (a restart heals it), so both mutations
// answer 503, inviting a retry — not 500.
func TestServerDeleteNotPersisted(t *testing.T) {
	dir := t.TempDir()
	d, ts := newDurableServer(t, dir)
	defer ts.Close()

	var ins InsertResponse
	postJSON(t, ts.URL+"/graphs", InsertRequest{Graphs: dataset.PaperDB()}, &ins)
	if err := d.Close(); err != nil { // WAL refuses appends from here on
		t.Fatalf("Close: %v", err)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/graphs/%s", ts.URL, ins.Inserted[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete with closed WAL: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("transient persist failure carried no Retry-After")
	}

	// And the insert path likewise: a fresh name reaches the WAL append,
	// fails it, and must come back 503 with nothing applied.
	fresh := dataset.PaperDB()[0].Clone()
	fresh.SetName("fresh-after-close")
	iresp := postJSON(t, ts.URL+"/graphs", InsertRequest{Graph: fresh}, nil)
	if iresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert with closed WAL: status %d, want 503", iresp.StatusCode)
	}
	if _, ok := d.DB.Get("fresh-after-close"); ok {
		t.Fatal("failed insert landed in the database")
	}
}
