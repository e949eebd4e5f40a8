package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// tkey is a distinct skyline answer key per name.
func tkey(name string) cacheKey {
	return cacheKey{path: "all", qh: name}
}

// entryAt is a skyline answer exact at gen with no lineage, like a
// complete answer.
func entryAt(gen uint64) *cacheEntry {
	return tableEntry(&gdb.VectorTable{Generation: gen, Basis: measure.Default()}, nil)
}

// putEntry stores entryAt(gen) under a key named name.
func putEntry(c *Cache, name string, gen uint64) *cacheEntry {
	e := entryAt(gen)
	c.put(tkey(name), e)
	return e
}

// putPruned stores a lineage-carrying skyline answer exact at gen under
// a key named name: the kind of entry a mutation may upgrade.
func putPruned(c *Cache, name string, gen uint64) *cacheEntry {
	e := entryAt(gen)
	e.lin = &lineage{}
	c.put(tkey(name), e)
	return e
}

// cached reports whether key holds an entry, servable or not.
func cached(c *Cache, key cacheKey) bool {
	_, ok := c.lru.Get(key)
	return ok
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.lookup(tkey("a"), 1, false); ok {
		t.Fatal("empty cache reported a hit")
	}
	e := putEntry(c, "a", 1)
	got, ok := c.lookup(tkey("a"), 1, false)
	if !ok || got != e {
		t.Fatalf("lookup(a) = %v, %v; want stored entry", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	putEntry(c, "a", 1)
	putEntry(c, "b", 1)
	c.lookup(tkey("a"), 1, false) // a is now more recent than b
	putEntry(c, "c", 1)
	if _, ok := c.lookup(tkey("b"), 1, false); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.lookup(tkey("a"), 1, false); !ok {
		t.Fatal("a should have survived eviction")
	}
	if _, ok := c.lookup(tkey("c"), 1, false); !ok {
		t.Fatal("c should be cached")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d; want 1", st.Evictions)
	}
}

func TestCachePutExistingRefreshes(t *testing.T) {
	c := NewCache(2)
	putEntry(c, "a", 1)
	putEntry(c, "b", 1)
	putEntry(c, "a", 2) // refresh, not a new entry
	putEntry(c, "c", 1)
	if _, ok := c.lookup(tkey("b"), 1, false); ok {
		t.Fatal("b should be evicted: a was refreshed to most recent")
	}
	got, ok := c.lookup(tkey("a"), 2, false)
	if !ok || got.table.Generation != 2 {
		t.Fatalf("a should hold the refreshed answer, got %+v, %v", got, ok)
	}
}

// TestCacheServesOnlyTheGenerationRead pins servable, the one rule for
// what a lookup and a flight follower may take: an entry — a skyline
// answer or a ranked one alike — answers only a request that read
// exactly the generation it is exact at, and anything else is a
// counted miss.
func TestCacheServesOnlyTheGenerationRead(t *testing.T) {
	c := NewCache(8)
	putEntry(c, "t", 4)
	for _, read := range []uint64{3, 5} {
		if _, ok := c.lookup(tkey("t"), read, false); ok {
			t.Fatalf("answer exact at 4 served a request that read %d", read)
		}
	}
	if _, ok := c.lookup(tkey("t"), 4, false); !ok {
		t.Fatal("answer exact at 4 must serve a request that read 4")
	}

	rk := cacheKey{path: "topk", qh: "q", measures: "DistEd", arg: 3}
	c.put(rk, &cacheEntry{gen: 7, lin: &lineage{}})
	for _, read := range []uint64{6, 8} {
		if _, ok := c.lookup(rk, read, false); ok {
			t.Fatalf("ranked answer exact at 7 served a request that read %d", read)
		}
	}
	if _, ok := c.lookup(rk, 7, false); !ok {
		t.Fatal("ranked answer must serve a request that read its generation")
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 2 {
		t.Fatalf("stats = %+v; want 4 misses (each unservable lookup) and 2 hits", st)
	}

	// A flight follower that read generation 5 must not take a leader's
	// answer built at 4: it evaluates itself.
	s, _ := newTestServer(t, Config{CacheSize: 8})
	key := tkey("follow")
	leader := &flightCall{done: make(chan struct{}), e: entryAt(4)}
	s.flightMu.Lock()
	s.flight[key] = leader
	s.flightMu.Unlock()
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.cache.put(key, leader.e)
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(leader.done)
	}()
	builds := 0
	e, hit, err := s.coalesce(context.Background(), key, 5, func() (*cacheEntry, error) {
		builds++
		return entryAt(5), nil
	})
	if err != nil || hit || builds != 1 || e.gen != 5 {
		t.Fatalf("follower took (gen %d, hit %v, builds %d, err %v); want its own build at 5",
			e.gen, hit, builds, err)
	}
}

// TestCachePruneStale: one sweep for the mutation that produced
// generation 2 drops the entries no proof covers — complete
// answers behind it, lineage entries more than one generation behind —
// counting each as an invalidation and a fallback, keeps entries
// already exact at 2, and collects the lineage entry exactly one
// generation behind for its upgrade without dropping it.
func TestCachePruneStale(t *testing.T) {
	c := NewCache(8)
	putEntry(c, "all-1a", 1)
	putEntry(c, "all-1b", 1)
	putPruned(c, "pruned-0", 0)
	one := putPruned(c, "pruned-1", 1)
	putEntry(c, "all-2", 2)
	cands := c.sweep(2)
	if len(cands) != 1 || cands[0].e != one || cands[0].key != tkey("pruned-1") {
		t.Fatalf("sweep collected %+v; want only pruned-1", cands)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after the sweep; want 2 (all-2 and the collected pruned-1)", c.Len())
	}
	if _, ok := c.lookup(tkey("all-2"), 2, false); !ok {
		t.Fatal("an entry exact at the mutation's generation must survive the sweep")
	}
	if st := c.Stats(); st.Invalidations != 3 || st.DeltaFallbacks != 3 || st.DeltaApplied != 0 {
		t.Fatalf("stats = %+v; want 3 invalidations, 3 fallbacks, 0 applied", st)
	}

	// The collected entry's upgrade fails: settle drops it, counted.
	c.settle(cands[0], nil)
	if cached(c, tkey("pruned-1")) {
		t.Fatal("a failed upgrade must drop its entry")
	}
	if st := c.Stats(); st.Invalidations != 4 || st.DeltaFallbacks != 4 {
		t.Fatalf("stats = %+v; want 4 invalidations and fallbacks", st)
	}
}

// TestCachePruneStaleKeepsNewer: a sweep never drops an entry at or
// past its mutation's generation — maintenance of concurrent mutations
// can run out of order — and a settle never overwrites an entry stored
// under its key after the sweep read it.
func TestCachePruneStaleKeepsNewer(t *testing.T) {
	c := NewCache(8)
	putEntry(c, "all", 3)
	putPruned(c, "pruned", 3)
	if cands := c.sweep(2); len(cands) != 0 || c.Len() != 2 {
		t.Fatalf("sweep(2) collected %d and left %d entries; want 0 and 2", len(cands), c.Len())
	}

	// A successful upgrade replaces the entry in place under its key.
	cands := c.sweep(4)
	if len(cands) != 1 {
		t.Fatalf("sweep(4) collected %d; want the pruned answer", len(cands))
	}
	up := cands[0].e.advanced(4)
	c.settle(cands[0], up)
	if e, ok := c.lookup(tkey("pruned"), 4, false); !ok || e != up {
		t.Fatal("an upgraded entry must serve the mutation's generation under its key")
	}
	if st := c.Stats(); st.DeltaApplied != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v; want 1 applied, 1 invalidation (the complete answer)", st)
	}

	// A fresh build stored between the sweep and the settle wins: the
	// upgrade derived from the entry the sweep read is discarded, and so
	// is a failure's drop.
	cands = c.sweep(5)
	fresh := putPruned(c, "pruned", 5)
	c.settle(cands[0], cands[0].e.advanced(5))
	c.settle(cands[0], nil)
	if e, ok := c.lookup(tkey("pruned"), 5, false); !ok || e != fresh {
		t.Fatal("settle overwrote or dropped an entry the sweep did not read")
	}
	if st := c.Stats(); st.DeltaApplied != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v; a settle that did not act must count nothing", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	putEntry(c, "a", 1)
	if _, ok := c.lookup(tkey("a"), 1, false); ok {
		t.Fatal("capacity-0 cache must never hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d; want 0", c.Len())
	}
}

// TestCacheKeyDistinguishesInputs: every request input that shapes an
// answer is part of its key, and identical requests share one.
func TestCacheKeyDistinguishesInputs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	radius, other := 2.0, 3.0
	q := dataset.PaperQuery()
	key := func(kind string, req QueryRequest) cacheKey {
		t.Helper()
		if req.Graph == nil {
			req.Graph = q
		}
		res, err := s.resolveQuery(kind, &req)
		if err != nil {
			t.Fatal(err)
		}
		return res.key
	}
	otherGraph := graph.New("other")
	otherGraph.AddVertex("C")
	keys := []cacheKey{
		key("skyline", QueryRequest{}),
		key("skyline", QueryRequest{All: true}),
		key("skyline", QueryRequest{Graph: otherGraph}),
		key("skyline", QueryRequest{Basis: []string{"DistEd"}}),
		key("topk", QueryRequest{K: 3}),
		key("topk", QueryRequest{K: 4}),
		key("topk", QueryRequest{K: 3, Measure: "DistGu"}),
		key("range", QueryRequest{Radius: &radius}),
		key("range", QueryRequest{Radius: &other}),
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Errorf("keys %d and %d collide: %+v", i, j, keys[i])
			}
		}
	}
	if again := key("skyline", QueryRequest{}); again != keys[0] {
		t.Errorf("key is not stable: %+v vs %+v", keys[0], again)
	}
}

func TestCacheManyEntriesBounded(t *testing.T) {
	c := NewCache(16)
	for i := 0; i < 100; i++ {
		putEntry(c, fmt.Sprintf("k%d", i), 1)
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d; want capacity 16", c.Len())
	}
}
