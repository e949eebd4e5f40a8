package lru

import "testing"

func TestGetPutEvict(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	if ev := c.Put("c", 3); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 7)
	if v, _ := c.Get("a"); v != 7 {
		t.Fatalf("replaced value = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// peek reads the value under key without touching recency.
func peek(c *Cache[string, int], key string) (v int, ok bool) {
	c.PruneFunc(func(k string, val int) bool {
		if k == key {
			v, ok = val, true
		}
		return false
	})
	return v, ok
}

// TestReplaceOnlyWhatWasRead: Replace acts only on the value its caller
// read — replacing it in place or dropping it — and leaves an absent
// key or a value someone else stored since alone.
func TestReplaceOnlyWhatWasRead(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	is := func(want int) func(int) bool { return func(v int) bool { return v == want } }
	if !c.Replace("a", is(1), 10, false) {
		t.Fatal("Replace of the value read did not act")
	}
	if v, _ := peek(c, "a"); v != 10 {
		t.Fatalf("replaced value = %d", v)
	}
	// In place: "a" is still the LRU entry.
	c.Put("c", 3)
	if _, ok := peek(c, "a"); ok {
		t.Fatal("Replace refreshed recency")
	}
	if c.Replace("b", is(1), 20, false) || c.Replace("b", is(1), 0, true) {
		t.Fatal("Replace acted on a value it did not read")
	}
	if v, _ := peek(c, "b"); v != 2 {
		t.Fatalf("unread value overwritten: %d", v)
	}
	if c.Replace("zz", is(0), 1, false) || c.Len() != 2 {
		t.Fatal("Replace of an absent key stored an entry")
	}
	if !c.Replace("b", is(2), 0, true) || c.Len() != 1 {
		t.Fatal("Replace with drop kept the entry")
	}
}

func TestPruneFunc(t *testing.T) {
	c := New[string, int](4)
	for _, k := range []string{"a1", "a2", "b1"} {
		c.Put(k, 0)
	}
	if n := c.PruneFunc(func(k string, _ int) bool { return k[0] == 'a' }); n != 2 {
		t.Fatalf("pruned %d, want 2", n)
	}
	if _, ok := peek(c, "b1"); c.Len() != 1 || !ok {
		t.Fatalf("wrong survivor set, len %d", c.Len())
	}
}

func TestDisabled(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}
