package cache

import (
	"fmt"
	"testing"

	"datadroplets/internal/tuple"
)

func mk(key string, seq uint64, val string) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Value: []byte(val), Version: tuple.Version{Seq: seq, Writer: 1}}
}

func v(seq uint64) tuple.Version { return tuple.Version{Seq: seq, Writer: 1} }

func TestHitOnExactVersion(t *testing.T) {
	c := New(4)
	c.Put(mk("a", 3, "x"))
	got, ok := c.Get("a", v(3))
	if !ok || string(got.Value) != "x" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestStaleVersionIsMissAndEvicted(t *testing.T) {
	c := New(4)
	c.Put(mk("a", 3, "x"))
	if _, ok := c.Get("a", v(4)); ok {
		t.Fatal("stale entry served")
	}
	_, _, stale := c.Stats()
	if stale != 1 {
		t.Fatalf("stale counter = %d", stale)
	}
	if c.Len() != 0 {
		t.Fatal("stale entry not evicted")
	}
}

func TestNeverDowngrade(t *testing.T) {
	c := New(4)
	c.Put(mk("a", 5, "new"))
	c.Put(mk("a", 2, "old")) // late stale fill must not clobber
	got, ok := c.Get("a", v(5))
	if !ok || string(got.Value) != "new" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	c.Put(mk("a", 1, "x"))
	c.Put(mk("b", 1, "x"))
	c.Put(mk("c", 1, "x"))
	// Touch a so b becomes LRU.
	c.Get("a", v(1))
	c.Put(mk("d", 1, "x"))
	if _, ok := c.Get("b", v(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get("a", v(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(2)
	c.Put(mk("a", 1, "x"))
	c.Invalidate("a")
	c.Invalidate("missing") // no-op
	if _, ok := c.Get("a", v(1)); ok {
		t.Fatal("invalidated entry served")
	}
}

// TestPutAndGetShareTuple pins the cache's half of the ownership rule
// (docs/DESIGN.md §1): a sequenced tuple is immutable, so Put keeps the
// tuple it is handed and Get hands that same tuple back — a copy on
// either side would only be a second value held or allocated per op.
// The one copy a reader may write to is made at the client boundary.
func TestPutAndGetShareTuple(t *testing.T) {
	c := New(2)
	src := mk("a", 1, "orig")
	c.Put(src)
	if held := c.items["a"].Value.(*entry).tup; held != src {
		t.Fatal("Put copied the tuple instead of retaining it")
	}
	if got, ok := c.Get("a", v(1)); !ok || got != src {
		t.Fatalf("Get = %p, %v; want the held tuple %p", got, ok, src)
	}
}

func TestHitRatio(t *testing.T) {
	c := New(8)
	if c.HitRatio() != 0 {
		t.Fatal("empty cache hit ratio should be 0")
	}
	c.Put(mk("a", 1, "x"))
	c.Get("a", v(1))
	c.Get("b", v(1))
	if r := c.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio = %v", r)
	}
}

func TestWipeKeepsStats(t *testing.T) {
	c := New(4)
	c.Put(mk("a", 1, "x"))
	c.Get("a", v(1))
	c.Wipe()
	if c.Len() != 0 {
		t.Fatal("wipe left entries")
	}
	hits, _, _ := c.Stats()
	if hits != 1 {
		t.Fatal("wipe cleared stats")
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New(0) // clamps to 1
	c.Put(mk("a", 1, "x"))
	c.Put(mk("b", 1, "x"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestManyKeysChurn(t *testing.T) {
	c := New(64)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("k%d", i%128)
		c.Put(mk(key, uint64(i/128+1), "x"))
	}
	if c.Len() > 64 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}
