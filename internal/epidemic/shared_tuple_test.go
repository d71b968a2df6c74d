package epidemic_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/tuple"
)

func checksum(t *tuple.Tuple) uint64 {
	h := fnv.New64a()
	epidemic.TupleChecksum(h, t)
	return h.Sum64()
}

// TestSharedTupleNeverMutated holds the whole stack to the ownership
// rule the write path now rests on (docs/DESIGN.md §1): the tuple
// SoftNode.Put builds is the one the soft cache, the rumor, every
// gossip payload cache and every keeping store retain — in the
// simulator, one pointer shared by all of them — and nothing may write
// to it again. Every tuple is deep-hashed as Put hands it over; after
// dissemination, digest pulls, range repair, supersession and a
// crashed node's catch-up have all had it in their hands, each of
// those same pointers must hash as it did. Four workers run the nodes'
// compute phase concurrently, so under -race a write to a shared tuple
// is reported even where it would restore the bytes.
func TestSharedTupleNeverMutated(t *testing.T) {
	c := core.NewCluster(core.ClusterConfig{
		SoftNodes: 2, PersistentNodes: 24, Seed: 77, Workers: 4,
		Persist: epidemic.Config{Replication: 3, FanoutC: 3, AntiEntropyEvery: 5, AggregateAttrs: []string{"price"}},
	})
	defer c.Close()
	c.Run(15)

	atPut := map[*tuple.Tuple]uint64{} // every tuple Put built -> its checksum then
	byVersion := map[string]uint64{}   // the same checksums by key@version
	versionOf := func(tp *tuple.Tuple) string { return fmt.Sprintf("%s@%v", tp.Key, tp.Version) }
	keyOf := func(i int) string { return fmt.Sprintf("shared-%02d", i%40) }
	c.Net.Kill(c.PersistentIDs()[3], false)
	for i := 0; i < 160; i++ {
		key := keyOf(i)
		s := c.Route(key)
		_, envs := s.Put(c.Net.Round(), key, []byte(fmt.Sprintf("value-%03d", i)),
			map[string]float64{"price": float64(i)}, []string{"grp", key}, i%10 == 9)
		for _, e := range envs {
			tp := e.Msg.(epidemic.WriteCmd).Tuple
			atPut[tp] = checksum(tp)
			byVersion[versionOf(tp)] = atPut[tp]
		}
		c.Net.Emit(s.Self, envs)
		switch {
		case i == 80:
			c.Net.Revive(c.PersistentIDs()[3]) // catches up by digest pull and range sync
		case i%8 == 7:
			_, _ = c.Get(keyOf(i - 3)) // steps the cluster; cache fill
		case i%2 == 1:
			c.Step()
		}
	}
	if len(atPut) != 160 {
		t.Fatalf("captured %d tuples from 160 Puts", len(atPut))
	}
	c.Run(120)

	for tp, sum := range atPut {
		if got := checksum(tp); got != sum {
			t.Errorf("%s was mutated after Put handed it over: %016x -> %016x", versionOf(tp), sum, got)
		}
	}
	shared, copies := 0, 0
	for id, en := range c.Pers {
		en.St.ForEachRef(func(tp *tuple.Tuple) bool {
			if _, ok := atPut[tp]; ok {
				shared++
			} else {
				copies++ // reached this store as a read's clone (repair pushes)
			}
			if want := byVersion[versionOf(tp)]; checksum(tp) != want {
				t.Errorf("node %v stores %s with checksum %016x, Put handed over %016x", id, versionOf(tp), checksum(tp), want)
			}
			return true
		})
	}
	if shared == 0 {
		t.Fatal("no store holds a tuple by the pointer Put created: nothing is shared, so nothing was proved")
	}
	cached := 0
	for id, s := range c.Softs {
		for i := 0; i < 40; i++ {
			latest, _ := s.Seq.Latest(keyOf(i))
			if got, ok := s.Cache.Get(keyOf(i), latest); ok {
				cached++
				if want := byVersion[versionOf(got)]; checksum(got) != want {
					t.Errorf("soft node %v caches %s with checksum %016x, Put handed over %016x", id, versionOf(got), checksum(got), want)
				}
			}
		}
	}
	if cached == 0 {
		t.Fatal("no soft cache holds any written key")
	}
	t.Logf("%d store entries are the tuple Put built, %d are clones from repair reads; %d cache entries checked", shared, copies, cached)
}
