package core

import (
	"errors"
	"fmt"
	"testing"

	"datadroplets/internal/epidemic"
)

func smallCluster(seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		SoftNodes:       3,
		PersistentNodes: 24,
		Seed:            seed,
		Persist: epidemic.Config{
			Replication: 3, FanoutC: 3, AntiEntropyEvery: 5, DisableRepair: true,
		},
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	c := smallCluster(1)
	c.Run(10)
	if err := c.Put("user:1", []byte("alice"), nil, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("user:1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Value) != "alice" {
		t.Fatalf("value = %q", got.Value)
	}
}

func TestGetMissingKey(t *testing.T) {
	c := smallCluster(2)
	c.Run(10)
	_, err := c.Get("never-written")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	c := smallCluster(3)
	c.Run(10)
	if err := c.Put("k", []byte("v1"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v2"), nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "v2" {
		t.Fatalf("value = %q, want v2", got.Value)
	}
}

func TestDeleteHidesKey(t *testing.T) {
	c := smallCluster(4)
	c.Run(10)
	if err := c.Put("k", []byte("v"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err after delete = %v", err)
	}
}

func TestCacheServesRepeatReads(t *testing.T) {
	c := smallCluster(5)
	c.Run(10)
	if err := c.Put("hot", []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	s := c.Route("hot")
	// First Get fills or hits the cache (Put already cached it on the
	// same soft node, so this is a hit).
	if _, err := c.Get("hot"); err != nil {
		t.Fatal(err)
	}
	hitsBefore := s.CacheHits
	for i := 0; i < 5; i++ {
		if _, err := c.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	if s.CacheHits < hitsBefore+5 {
		t.Fatalf("cache hits = %d, want >= %d", s.CacheHits, hitsBefore+5)
	}
}

// TestGetReturnsClone: inside the cluster a Get resolves to the shared
// immutable tuple (soft cache, stores), and Cluster.settle is where the
// read leaves it — so a caller scribbling on its result must not reach
// what the next Get sees, whether that Get hits the soft cache or goes
// to the persistent layer after a cache wipe.
func TestGetReturnsClone(t *testing.T) {
	c := smallCluster(9)
	c.Run(10)
	if err := c.Put("a", []byte("orig"), nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	s := c.Route("a")
	for _, wipe := range []bool{false, true} {
		if wipe {
			s.Cache.Wipe()
		}
		got, err := c.Get("a")
		if err != nil {
			t.Fatalf("wipe=%v: Get: %v", wipe, err)
		}
		got.Value[0] = 'X'
		again, err := c.Get("a")
		if err != nil {
			t.Fatalf("wipe=%v: second Get: %v", wipe, err)
		}
		if string(again.Value) != "orig" {
			t.Fatalf("wipe=%v: value = %q after scribbling on a Get result; cluster leaked internal state", wipe, again.Value)
		}
	}
}

func TestDirectoryHintsPopulated(t *testing.T) {
	c := smallCluster(6)
	c.Run(10)
	if err := c.Put("hinted", []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Run(10) // let remaining acks land
	s := c.Route("hinted")
	if len(s.Dir.Hints("hinted")) == 0 {
		t.Fatal("no directory hints after write")
	}
}

func TestWritesSurviveCacheWipe(t *testing.T) {
	// Reads must be answerable from the persistent layer alone.
	c := smallCluster(7)
	c.Run(10)
	if err := c.Put("durable", []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	for _, s := range c.Softs {
		s.Cache.Wipe()
	}
	got, err := c.Get("durable")
	if err != nil {
		t.Fatalf("Get after cache wipe: %v", err)
	}
	if string(got.Value) != "x" {
		t.Fatalf("value = %q", got.Value)
	}
}

func TestSoftLayerRecovery(t *testing.T) {
	c := smallCluster(8)
	c.Run(10)
	const writes = 20
	for i := 0; i < writes; i++ {
		if err := c.Put(fmt.Sprintf("key-%d", i), []byte("v"), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10)
	c.WipeSoftLayer()
	// Sanity: sequencers are empty.
	for _, s := range c.Softs {
		if len(s.Seq.Keys()) != 0 {
			t.Fatal("wipe incomplete")
		}
	}
	recovered, err := c.RecoverSoftLayer(8, 10000, 100)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recovered == 0 {
		t.Fatal("nothing recovered")
	}
	// Reads must work again, and writes must continue with versions above
	// the recovered ones (no version regression).
	got, err := c.Get("key-3")
	if err != nil || string(got.Value) != "v" {
		t.Fatalf("Get after recovery: %v %v", got, err)
	}
	if err := c.Put("key-3", []byte("v2"), nil, nil); err != nil {
		t.Fatal(err)
	}
	after, err := c.Get("key-3")
	if err != nil || string(after.Value) != "v2" {
		t.Fatalf("post-recovery overwrite lost: %v %v", after, err)
	}
}

func TestAggregateQuery(t *testing.T) {
	c := NewCluster(ClusterConfig{
		SoftNodes:       2,
		PersistentNodes: 30,
		Seed:            9,
		Persist: epidemic.Config{
			Replication: 3, FanoutC: 3, DisableRepair: true,
			AggregateAttrs: []string{"count"}, AggEpochLen: 15,
		},
	})
	c.Run(10)
	const writes = 25
	for i := 0; i < writes; i++ {
		if err := c.Put(fmt.Sprintf("k-%d", i), []byte("v"), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(40) // a full aggregation epoch over the stored data
	resp, err := c.Aggregate("count")
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if resp.Sum < writes/2 || resp.Sum > writes*2 {
		t.Fatalf("count estimate = %v, want ≈%d", resp.Sum, writes)
	}
	// Unknown attribute errors cleanly.
	if _, err := c.Aggregate("nope"); err == nil {
		t.Fatal("unknown aggregate should error")
	}
}

func TestScanThroughFullStack(t *testing.T) {
	c := NewCluster(ClusterConfig{
		SoftNodes:       2,
		PersistentNodes: 40,
		Seed:            10,
		Persist: epidemic.Config{
			Replication: 4, FanoutC: 3, DisableRepair: true,
			Sieve: epidemic.SieveQuantile, QuantileAttr: "price",
			DistEpochLen: 15, DistBuckets: 16, OrderAttr: true,
		},
	})
	c.Run(20)
	for i := 0; i < 60; i++ {
		attrs := map[string]float64{"price": float64(i)}
		if err := c.Put(fmt.Sprintf("item-%03d", i), []byte("v"), attrs, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(60) // histogram epoch + overlay convergence
	tuples, err := c.Scan("price", 20, 40, 60)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(tuples) == 0 {
		t.Fatal("scan returned nothing")
	}
	seen := map[string]bool{}
	for _, tp := range tuples {
		if tp.Attrs["price"] < 20 || tp.Attrs["price"] > 40 {
			t.Fatalf("out-of-range tuple %v", tp.Attrs["price"])
		}
		seen[tp.Key] = true
	}
	// Expect a reasonable fraction of the 21 in-range items.
	if len(seen) < 10 {
		t.Fatalf("scan found %d distinct in-range items, want >= 10", len(seen))
	}
}

func TestRouteFallsBackWhenSoftNodeDies(t *testing.T) {
	c := smallCluster(11)
	c.Run(10)
	if err := c.Put("k", []byte("v"), nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Run(5)
	primary := c.Route("k")
	c.Net.Kill(primary.Self, false)
	backup := c.Route("k")
	if backup == nil || backup.Self == primary.Self {
		t.Fatal("routing did not fail over")
	}
	// The backup soft node has no sequencer entry for k; the read is
	// best-effort from the persistent layer.
	got, err := c.Get("k")
	if err != nil {
		t.Fatalf("Get after soft failover: %v", err)
	}
	if string(got.Value) != "v" {
		t.Fatalf("value = %q", got.Value)
	}
}
