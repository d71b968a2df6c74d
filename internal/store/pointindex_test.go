package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// storeModel is the oracle of TestPointIndexModel: the store's documented
// semantics over a plain map, with key order recovered by sorting.
type storeModel struct {
	ents   map[string]*tuple.Tuple
	floors map[string]tuple.Version
	bytes  int64
}

func liveBytes(t *tuple.Tuple) int64 {
	if t == nil || t.Deleted {
		return 0
	}
	return int64(len(t.Value))
}

func (m *storeModel) apply(t *tuple.Tuple) bool {
	if f, ok := m.floors[t.Key]; ok && !f.Less(t.Version) {
		return false
	}
	cur := m.ents[t.Key]
	if cur != nil && !cur.Version.Less(t.Version) {
		return false
	}
	m.bytes += liveBytes(t) - liveBytes(cur)
	m.ents[t.Key] = t
	delete(m.floors, t.Key)
	return true
}

func (m *storeModel) discard(key string, floor tuple.Version) bool {
	cur, ok := m.ents[key]
	if cur != nil && floor.Less(cur.Version) {
		floor = cur.Version
	}
	if !floor.IsZero() && m.floors[key].Less(floor) {
		m.floors[key] = floor
	}
	m.bytes -= liveBytes(cur)
	delete(m.ents, key)
	return ok
}

// checkAgainstModel holds the store to the oracle: the point index, the
// level-0 walk and the ring-bucket population are the same node set in
// the oracle's key order, every level above is a sorted sublist, and the
// four point reads answer as the oracle does for every key of the
// universe, held or not.
func checkAgainstModel(t *testing.T, s *Store, m *storeModel, universe []string) {
	t.Helper()
	want := make([]string, 0, len(m.ents))
	for k := range m.ents {
		want = append(want, k)
	}
	sort.Strings(want)
	if s.Total() != len(want) || len(s.byKey) != len(want) {
		t.Fatalf("Total %d, index %d entries, oracle %d", s.Total(), len(s.byKey), len(want))
	}
	i := 0
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if i >= len(want) || e.key != want[i] {
			t.Fatalf("level-0 walk entry %d is %q, not the oracle's (%d keys: %q)", i, e.key, len(want), want)
		}
		if got := s.find(e.key); got != e {
			t.Fatalf("index holds %p under %q, the list holds %p", got, e.key, e)
		}
		if b := s.idx.buckets[s.idx.bucketOf(e.point)]; int(e.bslot) >= len(b.ents) || b.ents[e.bslot] != e {
			t.Fatalf("ring bucket does not hold the list's node for %q", e.key)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("level-0 walk ended after %d entries, oracle has %d", i, len(want))
	}
	for lvl := 1; lvl < s.level; lvl++ {
		for e := s.head.next[lvl]; e != nil && e.next[lvl] != nil; e = e.next[lvl] {
			if e.key >= e.next[lvl].key {
				t.Fatalf("level %d out of order: %q before %q", lvl, e.key, e.next[lvl].key)
			}
		}
	}
	checkIndexInvariants(t, s) // bucket membership, slots, digests, counts

	live := 0
	for _, k := range universe {
		w := m.ents[k]
		if w != nil && !w.Deleted {
			live++
		}
		var wantV tuple.Version
		if w != nil {
			wantV = w.Version
		}
		if got := s.Version(k); got != wantV {
			t.Fatalf("Version(%q) = %v, oracle %v", k, got, wantV)
		}
		any, ok := s.GetAny(k)
		if ok != (w != nil) || (ok && (any == w || any.Version != w.Version || any.Deleted != w.Deleted || !bytes.Equal(any.Value, w.Value))) {
			t.Fatalf("GetAny(%q) = %v,%v, oracle %v (a hit must be an equal clone)", k, any, ok, w)
		}
		wantLive := w != nil && !w.Deleted
		got, ok := s.Get(k)
		if ok != wantLive || (ok && (got == w || got.Version != w.Version || !bytes.Equal(got.Value, w.Value))) {
			t.Fatalf("Get(%q) = %v,%v, oracle %v (a hit must be an equal clone)", k, got, ok, w)
		}
		if peek, ok := s.Peek(k); ok != wantLive || (ok && peek != w) {
			t.Fatalf("Peek(%q) = %p,%v, oracle holds %p (live %v)", k, peek, ok, w, wantLive)
		}
		wantF, wantHas := m.floors[k]
		if f, has := s.Floor(k); has != wantHas || f != wantF {
			t.Fatalf("Floor(%q) = %v,%v, oracle %v,%v", k, f, has, wantF, wantHas)
		}
	}
	if s.Len() != live || s.Bytes() != m.bytes {
		t.Fatalf("Len %d Bytes %d, oracle %d %d", s.Len(), s.Bytes(), live, m.bytes)
	}
}

// TestPointIndexModel drives 50 000 random steps — Apply of new, newer,
// stale, duplicate and tombstone tuples, of the "" key; Discard with and
// without a floor, ClearFloor, Wipe — through the store and a plain-map oracle, and every
// 500 steps holds the three structures and every point read to it.
func TestPointIndexModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := New(rand.New(rand.NewSource(22)))
	m := &storeModel{ents: map[string]*tuple.Tuple{}, floors: map[string]tuple.Version{}}
	universe := []string{""}
	for i := 0; i < 600; i++ {
		universe = append(universe, fmt.Sprintf("%06x/k%07d", 0xabc123, i))
	}
	version := func() tuple.Version {
		return tuple.Version{Seq: uint64(1 + rng.Intn(12)), Writer: node.ID(1 + rng.Intn(3))}
	}
	applied, refused := 0, 0
	for step := 1; step <= 50_000; step++ {
		k := universe[rng.Intn(len(universe))]
		switch op := rng.Intn(100); {
		case op < 60:
			tp := &tuple.Tuple{Key: k, Value: make([]byte, rng.Intn(16)), Version: version(), Deleted: rng.Intn(6) == 0}
			if cur := m.ents[k]; cur != nil && rng.Intn(4) == 0 {
				tp.Version = cur.Version // exact duplicate
			}
			got, want := s.Apply(tp), m.apply(tp)
			if got != want {
				t.Fatalf("step %d: Apply(%q %v) = %v, oracle %v", step, k, tp.Version, got, want)
			}
			if got {
				applied++
			} else {
				refused++
			}
		case op < 88:
			var floor tuple.Version
			if rng.Intn(3) > 0 {
				floor = version()
			}
			if got, want := s.Discard(k, floor), m.discard(k, floor); got != want {
				t.Fatalf("step %d: Discard(%q, %v) = %v, oracle %v", step, k, floor, got, want)
			}
		case op < 99:
			s.ClearFloor(k)
			delete(m.floors, k)
		default:
			if rng.Intn(10) == 0 {
				s.Wipe()
				m.ents, m.floors, m.bytes = map[string]*tuple.Tuple{}, map[string]tuple.Version{}, 0
			}
		}
		if step%500 == 0 {
			checkAgainstModel(t, s, m, universe)
		}
	}
	if applied < 5000 || refused < 5000 {
		t.Fatalf("op mix too thin: %d applied, %d refused", applied, refused)
	}
	t.Logf("%d applied, %d refused, %d descents", applied, refused, s.descents)
}

// TestPointOpsDoNotDescend pins the point index as the only point path by
// an exact count: no point read, overwrite, refused Apply or Discard of
// an absent key descends the skip list; a new-key Apply and a Discard of
// a held key descend exactly once each. The counter outlives Wipe.
func TestPointOpsDoNotDescend(t *testing.T) {
	const n = 10_000
	keys := benchKeys(n)
	s := newStore()
	for i, k := range keys {
		s.Apply(mk(k, 2, "v"))
		if s.descents != int64(i+1) {
			t.Fatalf("%d descents after %d new-key applies", s.descents, i+1)
		}
	}
	s.descents = 0
	for i, k := range keys {
		s.Version(k)
		s.Get(k)
		s.GetAny(k)
		s.Peek(k)
		if !s.Apply(mk(k, uint64(3+i), "overwrite")) {
			t.Fatalf("overwrite of %q refused", k)
		}
		if s.Apply(mk(k, 1, "stale")) || s.Apply(mk(k, uint64(3+i), "duplicate")) {
			t.Fatalf("stale or duplicate apply of %q landed", k)
		}
		s.Version(k + "/absent")
		if s.Discard(k+"/absent", tuple.Version{}) {
			t.Fatal("discarded an absent key")
		}
	}
	if s.descents != 0 {
		t.Fatalf("%d skip-list descents in %d rounds of point ops, want 0", s.descents, n)
	}
	for i, k := range keys[:n/2] {
		if !s.Discard(k, tuple.Version{}) || s.descents != int64(i+1) {
			t.Fatalf("Discard(%q): %d descents after %d discards", k, s.descents, i+1)
		}
	}
	if !s.Discard(keys[n/2], tuple.Version{}) || s.descents != n/2+1 {
		t.Fatalf("Discard of a held key: %d descents, want %d", s.descents, n/2+1)
	}
	s.Wipe()
	if s.descents != n/2+1 {
		t.Fatalf("Wipe changed the descent counter to %d", s.descents)
	}
}

// benchKeys builds n keys in the live benchmark's shape: a shared
// 7-byte prefix, so an ordered compare reads past it before it decides.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%06x/k%07d", 0xabc123, i)
	}
	return keys
}

// pointBench runs fn over a store of n keys visited in a fixed random
// permutation: in insertion order a skip-list descent is a cache-warm
// walk along its own last path and a point op looks free whatever it
// costs a server, where consecutive ops share nothing.
func pointBench(b *testing.B, fn func(b *testing.B, s *Store, keys []string)) {
	for _, n := range []int{15_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := benchKeys(n)
			s := newStore()
			for _, k := range keys {
				s.Apply(mk(k, 1, "value"))
			}
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, s, keys)
		})
	}
}

var (
	sinkVersion tuple.Version
	sinkTuple   *tuple.Tuple
	sinkOK      bool
)

func BenchmarkPointVersion(b *testing.B) {
	pointBench(b, func(b *testing.B, s *Store, keys []string) {
		for i := 0; i < b.N; i++ {
			sinkVersion = s.Version(keys[i%len(keys)])
		}
	})
}

func BenchmarkPointGet(b *testing.B) {
	pointBench(b, func(b *testing.B, s *Store, keys []string) {
		for i := 0; i < b.N; i++ {
			sinkTuple, sinkOK = s.Get(keys[i%len(keys)])
		}
	})
}

// BenchmarkPointOverwrite applies a strictly newer version of a held key
// per iteration. The tuples are built before the clock starts, one per
// iteration as the ownership rule requires (Apply retains what it takes).
func BenchmarkPointOverwrite(b *testing.B) {
	pointBench(b, func(b *testing.B, s *Store, keys []string) {
		tuples := make([]tuple.Tuple, b.N)
		value := []byte("value")
		for i := range tuples {
			tuples[i] = tuple.Tuple{Key: keys[i%len(keys)], Value: value, Version: tuple.Version{Seq: uint64(2 + i/len(keys)), Writer: 1}}
		}
		b.ResetTimer()
		for i := range tuples {
			sinkOK = s.Apply(&tuples[i])
		}
	})
}

// BenchmarkApplyNew inserts b.N new keys in random order into an empty
// store: the one write path that pays a descent, a node and an index
// insert.
func BenchmarkApplyNew(b *testing.B) {
	keys := benchKeys(b.N)
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	tuples := make([]tuple.Tuple, b.N)
	value := []byte("value")
	for i := range tuples {
		tuples[i] = tuple.Tuple{Key: keys[i], Value: value, Version: tuple.Version{Seq: 1, Writer: 1}}
	}
	s := newStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range tuples {
		sinkOK = s.Apply(&tuples[i])
	}
}
