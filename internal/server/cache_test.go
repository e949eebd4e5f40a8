package server

import (
	"fmt"
	"testing"

	"skygraph/internal/gdb"
	"skygraph/internal/measure"
)

func tableAt(gen uint64) *gdb.VectorTable {
	return &gdb.VectorTable{Generation: gen, Basis: measure.Default()}
}

// putTable stores a bare shard table under key.
func putTable(c *Cache, key string, shard int, t *gdb.VectorTable) {
	c.put(key, &cacheEntry{shard: shard, table: t})
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.lookup("a", false); ok {
		t.Fatal("empty cache reported a hit")
	}
	tab := tableAt(1)
	putTable(c, "a", 0, tab)
	got, ok := c.lookup("a", false)
	if !ok || got.table != tab {
		t.Fatalf("lookup(a) = %v, %v; want stored table", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	putTable(c, "a", 0, tableAt(1))
	putTable(c, "b", 0, tableAt(1))
	c.lookup("a", false) // a is now more recent than b
	putTable(c, "c", 0, tableAt(1))
	if _, ok := c.lookup("b", false); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.lookup("a", false); !ok {
		t.Fatal("a should have survived eviction")
	}
	if _, ok := c.lookup("c", false); !ok {
		t.Fatal("c should be cached")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d; want 1", st.Evictions)
	}
}

func TestCachePutExistingRefreshes(t *testing.T) {
	c := NewCache(2)
	putTable(c, "a", 0, tableAt(1))
	putTable(c, "b", 0, tableAt(1))
	putTable(c, "a", 0, tableAt(2)) // refresh, not a new entry
	putTable(c, "c", 0, tableAt(1))
	if _, ok := c.lookup("b", false); ok {
		t.Fatal("b should be evicted: a was refreshed to most recent")
	}
	got, ok := c.lookup("a", false)
	if !ok || got.table.Generation != 2 {
		t.Fatalf("a should hold the refreshed table, got %+v, %v", got, ok)
	}
}

func TestCachePruneStale(t *testing.T) {
	c := NewCache(8)
	putTable(c, "g1-a", 0, tableAt(1))
	putTable(c, "g1-b", 0, tableAt(1))
	putTable(c, "g2-a", 0, tableAt(2))
	if dropped := c.PruneStale(0, 2); dropped != 2 {
		t.Fatalf("PruneStale dropped %d; want 2", dropped)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after prune; want 1", c.Len())
	}
	if _, ok := c.lookup("g2-a", false); !ok {
		t.Fatal("current-generation entry must survive pruning")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d; want 2", st.Invalidations)
	}
}

func TestCachePruneStaleKeepsNewer(t *testing.T) {
	// A handler racing with a later mutation may call PruneStale with a
	// stale (smaller) generation; entries newer than it must survive.
	c := NewCache(8)
	putTable(c, "g2-a", 0, tableAt(2))
	if dropped := c.PruneStale(0, 1); dropped != 0 {
		t.Fatalf("PruneStale(1) dropped %d newer entries; want 0", dropped)
	}
	if _, ok := c.lookup("g2-a", false); !ok {
		t.Fatal("newer-generation entry must survive a stale prune")
	}

	// The takeover window a delta upgrade opens: promote republishes an
	// entry at the mutation's generation before the routing pass's own
	// PruneStale (and any racing handler's) runs. A prune carrying the
	// upgrade's generation — or any older one — must treat the upgraded
	// entry as current, not stale.
	c.promote("g2-a", "g3-a", &cacheEntry{shard: 0, table: tableAt(3)})
	if dropped := c.PruneStale(0, 2); dropped != 0 {
		t.Fatalf("PruneStale(2) dropped %d upgraded entries; want 0", dropped)
	}
	if dropped := c.PruneStale(0, 3); dropped != 0 {
		t.Fatalf("PruneStale(3) dropped %d entries at its own generation; want 0", dropped)
	}
	if _, ok := c.lookup("g3-a", false); !ok {
		t.Fatal("delta-upgraded entry must survive prunes at or below its generation")
	}
	if _, ok := c.lookup("g2-a", false); ok {
		t.Fatal("promote must retire the old key")
	}
	if st := c.Stats(); st.DeltaApplied != 1 {
		t.Fatalf("delta_applied = %d; want 1", st.DeltaApplied)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	putTable(c, "a", 0, tableAt(1))
	if _, ok := c.lookup("a", false); ok {
		t.Fatal("capacity-0 cache must never hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d; want 0", c.Len())
	}
}

func TestCacheKeyDistinguishesInputs(t *testing.T) {
	base := CacheKey(0, 1, "qh", measure.Default(), measure.Options{})
	variants := []string{
		CacheKey(0, 2, "qh", measure.Default(), measure.Options{}),
		CacheKey(0, 1, "other", measure.Default(), measure.Options{}),
		CacheKey(0, 1, "qh", []measure.Measure{measure.DistEd{}}, measure.Options{}),
		CacheKey(0, 1, "qh", measure.Default(), measure.Options{GEDMaxNodes: 10}),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with base key %s", i, base)
		}
	}
	if again := CacheKey(0, 1, "qh", measure.Default(), measure.Options{}); again != base {
		t.Errorf("key is not stable: %s vs %s", base, again)
	}
}

func TestCacheManyEntriesBounded(t *testing.T) {
	c := NewCache(16)
	for i := 0; i < 100; i++ {
		putTable(c, fmt.Sprintf("k%d", i), 0, tableAt(1))
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d; want capacity 16", c.Len())
	}
}

func TestCachePruneStaleIsPerShard(t *testing.T) {
	// Entries of other shards survive a prune no matter how old their
	// generation is — that is the point of per-shard invalidation.
	c := NewCache(8)
	putTable(c, "s0-old", 0, tableAt(1))
	putTable(c, "s1-old", 1, tableAt(1))
	if dropped := c.PruneStale(0, 5); dropped != 1 {
		t.Fatalf("PruneStale(0, 5) dropped %d; want 1", dropped)
	}
	if _, ok := c.lookup("s1-old", false); !ok {
		t.Fatal("shard 1 entry must survive a shard 0 prune")
	}
	if _, ok := c.lookup("s0-old", false); ok {
		t.Fatal("shard 0 entry must be pruned")
	}
}

func TestCacheKeyDistinguishesShards(t *testing.T) {
	a := CacheKey(0, 1, "qh", measure.Default(), measure.Options{})
	b := CacheKey(1, 1, "qh", measure.Default(), measure.Options{})
	if a == b {
		t.Fatalf("shard 0 and shard 1 keys collide: %s", a)
	}
}

// TestCacheKeyFormat pins the rendering of both key namespaces byte for
// byte: keys are compared, never parsed, so a format change would
// silently split or merge cache entries.
func TestCacheKeyFormat(t *testing.T) {
	cases := []struct{ got, want string }{
		{CacheKey(0, 1, "qh", measure.Default(), measure.Options{}),
			"s0|g1|qqh|bDistEd,DistMcs,DistGu|ged=0,mcs=0"},
		{CacheKey(12, 18446744073709551615, "abc", []measure.Measure{measure.DistEd{}}, measure.Options{GEDMaxNodes: 10, MCSMaxNodes: -1}),
			"s12|g18446744073709551615|qabc|bDistEd|ged=10,mcs=-1"},
		{CacheKey(3, 0, "", nil, measure.Options{}),
			"s3|g0|q|b|ged=0,mcs=0"},
		{prunedKey(CacheKey(1, 7, "h", []measure.Measure{measure.DistGu{}, measure.DistDegree{}}, measure.Options{MCSMaxNodes: 99})),
			"s1|g7|qh|bDistGu,DistDegree|ged=0,mcs=99|pruned"},
		{RankedKey("topk", []uint64{3, 0, 17}, "qh", measure.DistEd{}, 5, measure.Options{}),
			"r|topk|g3,0,17|qqh|mDistEd|a5|ged=0,mcs=0"},
		{RankedKey("range", []uint64{1}, "h", measure.DistGu{}, 0.25, measure.Options{GEDMaxNodes: 100}),
			"r|range|g1|qh|mDistGu|a0.25|ged=100,mcs=0"},
		{RankedKey("range", nil, "h", measure.DistMcs{}, 1e21, measure.Options{}),
			"r|range|g|qh|mDistMcs|a1e+21|ged=0,mcs=0"},
		{RankedKey("range", []uint64{2, 2}, "h", measure.DistNEd{}, 1.0/3, measure.Options{}),
			"r|range|g2,2|qh|mDistNEd|a0.3333333333333333|ged=0,mcs=0"},
	}
	for i, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("case %d: key %q, want %q", i, tc.got, tc.want)
		}
	}
	if got := (measure.Options{GEDMaxNodes: 4, MCSMaxNodes: 5}).Key(); got != "ged=4,mcs=5" {
		t.Errorf("Options.Key = %q", got)
	}
}

// BenchmarkCacheKeys renders the keys one delta promotion builds: a
// table key and a ranked key over three shards.
func BenchmarkCacheKeys(b *testing.B) {
	basis := measure.Default()
	gens := []uint64{1041, 998, 1017}
	qh := "c1f0e2d94b7a3c5e8f6a1b2c3d4e5f60"
	b.ReportAllocs()
	for b.Loop() {
		CacheKey(1, 1042, qh, basis, measure.Options{})
		RankedKey("topk", gens, qh, measure.DistEd{}, 10, measure.Options{})
	}
}
