package gdb

import (
	"math"
	"testing"
	"unsafe"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

func gedResult(d float64) measure.EngineResults {
	return measure.EngineResults{GED: d, GEDExact: true, HasGED: true}
}

// TestMemoEvictsWholeQueries: capacity counts pairs, recency and
// eviction work on query groups, least recently used first.
func TestMemoEvictsWholeQueries(t *testing.T) {
	m := NewScoreMemo(6)
	qa := newMemoQuery(graph.QueryHash(graph.Path(2, "A", "x")), measure.Options{})
	qb := newMemoQuery(graph.QueryHash(graph.Path(3, "A", "x")), measure.Options{})
	qc := newMemoQuery(graph.QueryHash(graph.Path(4, "A", "x")), measure.Options{})
	for seq := uint64(0); seq < 3; seq++ {
		m.merge(qa, seq, gedResult(1))
		m.merge(qb, seq, gedResult(2))
	}
	if n := m.Stats().Entries; n != 6 {
		t.Fatalf("entries = %d, want 6", n)
	}
	// Reading qa makes qb the eviction candidate.
	if r, ok := m.get(qa, 1); !ok || r.GED != 1 {
		t.Fatalf("get(qa, 1) = %+v, %v", r, ok)
	}
	m.merge(qc, 0, gedResult(3))
	if _, ok := m.get(qb, 0); ok {
		t.Fatal("least recently used query survived going over capacity")
	}
	if _, ok := m.get(qa, 2); !ok {
		t.Fatal("recently read query was evicted")
	}
	if n := m.Stats().Entries; n != 4 {
		t.Fatalf("entries after eviction = %d, want 4 (qa's 3 + qc's 1)", n)
	}
}

// TestMemoKeySeparatesBudgetsAndHashes: the same pair under other
// engine budgets, or another query, is another entry; a non-QueryHash
// string still gets a stable key of its own.
func TestMemoKeySeparatesBudgetsAndHashes(t *testing.T) {
	m := NewScoreMemo(100)
	qh := graph.QueryHash(graph.Path(3, "A", "x"))
	exact := newMemoQuery(qh, measure.Options{})
	capped := newMemoQuery(qh, measure.Options{GEDMaxNodes: 10})
	odd := newMemoQuery("not-a-query-hash", measure.Options{})
	if exact == capped || exact == odd || odd != newMemoQuery("not-a-query-hash", measure.Options{}) {
		t.Fatalf("key collisions: %v %v %v", exact, capped, odd)
	}
	if other := newMemoQuery(graph.QueryHash(graph.Path(4, "A", "x")), measure.Options{}); other == exact {
		t.Fatal("different query hashes share a key")
	}
	m.merge(exact, 7, gedResult(4))
	if _, ok := m.get(capped, 7); ok {
		t.Fatal("capped lookup served an uncapped result")
	}
	// A second engine's half completes the entry without dropping the first.
	m.merge(exact, 7, measure.EngineResults{MCS: 2, MCSExact: true, HasMCS: true})
	if r, _ := m.get(exact, 7); !r.Covers(true, true) || r.GED != 4 || r.MCS != 2 {
		t.Fatalf("merged entry = %+v", r)
	}
	if n := m.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

// TestMemoValRoundTrip: packing into the 16-byte memo slot loses
// nothing — every flag combination, with GED values a float64 must keep
// bit for bit and MCS values up to the int32 limit.
func TestMemoValRoundTrip(t *testing.T) {
	if size := unsafe.Sizeof(memoVal{}); size != 16 {
		t.Fatalf("memoVal is %d bytes, want 16", size)
	}
	for flags := 0; flags < 16; flags++ {
		for _, v := range []struct {
			ged float64
			mcs int
		}{{0, 0}, {7, 3}, {0.1 + 0.2, 1}, {1e300, math.MaxInt32}} {
			r := measure.EngineResults{
				GED: v.ged, MCS: v.mcs,
				HasGED: flags&1 != 0, GEDExact: flags&2 != 0,
				HasMCS: flags&4 != 0, MCSExact: flags&8 != 0,
			}
			if got := packMemo(r).unpack(); got != r {
				t.Fatalf("round trip %+v -> %+v", r, got)
			}
		}
	}
}

// TestMemoMergeKeepsHalves: a merge keeps the engine half an entry
// already holds and takes the one it lacks, whichever engine finishes
// first; a repeated half overwrites nothing else.
func TestMemoMergeKeepsHalves(t *testing.T) {
	m := NewScoreMemo(10)
	q := newMemoQuery(graph.QueryHash(graph.Path(3, "A", "x")), measure.Options{})
	mcsHalf := measure.EngineResults{MCS: 5, MCSExact: false, HasMCS: true}
	m.merge(q, 1, mcsHalf)
	m.merge(q, 1, measure.EngineResults{GED: 2.5, GEDExact: true, HasGED: true, MCS: 9, MCSExact: true, HasMCS: true})
	want := measure.EngineResults{GED: 2.5, GEDExact: true, HasGED: true, MCS: 5, HasMCS: true}
	if got, ok := m.get(q, 1); !ok || got != want {
		t.Fatalf("merged = %+v, %v; want %+v", got, ok, want)
	}
	m.merge(q, 2, gedResult(4))
	m.merge(q, 2, mcsHalf)
	want = measure.EngineResults{GED: 4, GEDExact: true, HasGED: true, MCS: 5, HasMCS: true}
	if got, _ := m.get(q, 2); got != want {
		t.Fatalf("merged = %+v; want %+v", got, want)
	}
	if n := m.Stats().Entries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
}
