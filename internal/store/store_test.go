package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

func newStore() *Store { return New(rand.New(rand.NewSource(1))) }

func mk(key string, seq uint64, val string) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Value: []byte(val), Version: tuple.Version{Seq: seq, Writer: 1}}
}

// storeSink keeps the store built under AllocsPerRun reachable, so escape
// analysis cannot put it on the stack and hide its allocations.
var storeSink *Store

// TestEmptyStoreHoldsNoHashTable: a simulation holds one store per node,
// most of them empty at 10^5 nodes, so New allocates the store, its
// skip-list head and the ring-bucket array and no hash table; reads and
// floor clears of an empty store leave it that way.
func TestEmptyStoreHoldsNoHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(100, func() { storeSink = New(rng) }); n > 4 {
		t.Fatalf("New allocates %.0f times, want at most 4", n)
	}
	s := storeSink
	s.Version("k")
	s.Floor("k")
	s.AttrSum("a")
	s.ClearFloor("k")
	s.Wipe()
	if s.byKey != nil || s.stats != nil || s.floors != nil {
		t.Fatal("an empty store holds a hash table")
	}
}

func TestApplyAndGet(t *testing.T) {
	s := newStore()
	if !s.Apply(mk("a", 1, "v1")) {
		t.Fatal("first apply rejected")
	}
	got, ok := s.Get("a")
	if !ok || string(got.Value) != "v1" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLastWriterWins(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 2, "new"))
	if s.Apply(mk("a", 1, "old")) {
		t.Fatal("stale write applied")
	}
	if s.Apply(mk("a", 2, "dup")) {
		t.Fatal("duplicate version applied")
	}
	if !s.Apply(mk("a", 3, "newer")) {
		t.Fatal("newer write rejected")
	}
	got, _ := s.Get("a")
	if string(got.Value) != "newer" {
		t.Fatalf("value = %q", got.Value)
	}
	// An overwrite counts only the newer value's bytes.
	if s.Bytes() != int64(len("newer")) {
		t.Fatalf("bytes = %d, want %d", s.Bytes(), len("newer"))
	}
}

func TestTombstones(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 1, "v"))
	del := mk("a", 2, "")
	del.Deleted = true
	if !s.Apply(del) {
		t.Fatal("tombstone rejected")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get returned tombstoned tuple")
	}
	if got, ok := s.GetAny("a"); !ok || !got.Deleted {
		t.Fatal("GetAny should return tombstone")
	}
	if s.Len() != 0 || s.Total() != 1 {
		t.Fatalf("Len/Total = %d/%d", s.Len(), s.Total())
	}
	// A write newer than the tombstone resurrects the key.
	if !s.Apply(mk("a", 3, "back")) {
		t.Fatal("resurrection rejected")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("resurrected key missing")
	}
}

func TestScanOrdered(t *testing.T) {
	s := newStore()
	keys := []string{"mango", "apple", "zebra", "kiwi", "banana"}
	for i, k := range keys {
		s.Apply(mk(k, uint64(i+1), k))
	}
	var got []string
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		got = append(got, tp.Key)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

func TestScanFromAndLimit(t *testing.T) {
	s := newStore()
	for i := 0; i < 10; i++ {
		s.Apply(mk(fmt.Sprintf("k%02d", i), 1, "v"))
	}
	var got []string
	s.ScanRef("k05", 3, func(tp *tuple.Tuple) bool {
		got = append(got, tp.Key)
		return true
	})
	if len(got) != 3 || got[0] != "k05" || got[2] != "k07" {
		t.Fatalf("scan = %v", got)
	}
}

func TestScanRange(t *testing.T) {
	s := newStore()
	for i := 0; i < 10; i++ {
		s.Apply(mk(fmt.Sprintf("k%02d", i), 1, "v"))
	}
	var got []string
	s.ScanRef("k03", 0, func(tp *tuple.Tuple) bool {
		if tp.Key >= "k07" {
			return false
		}
		got = append(got, tp.Key)
		return true
	})
	if len(got) != 4 || got[0] != "k03" || got[3] != "k06" {
		t.Fatalf("range scan = %v", got)
	}
}

// TestDiscardRemoves: Discard takes the entry out of every view of the
// store (no tombstone), and only once.
func TestDiscardRemoves(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 1, "v"))
	s.Apply(mk("b", 1, "v"))
	if !s.Discard("a", tuple.Version{}) {
		t.Fatal("discard failed")
	}
	if s.Discard("a", tuple.Version{}) {
		t.Fatal("double discard succeeded")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("discarded key still present")
	}
	if s.Len() != 1 || s.Total() != 1 {
		t.Fatalf("Len/Total = %d/%d", s.Len(), s.Total())
	}
}

func TestGetReturnsClone(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 1, "orig"))
	got, _ := s.Get("a")
	got.Value[0] = 'X'
	again, _ := s.Get("a")
	if string(again.Value) != "orig" {
		t.Fatal("Get leaked internal state")
	}
}

func TestKeysInArcAndDigest(t *testing.T) {
	s := newStore()
	for i := 0; i < 200; i++ {
		s.Apply(mk(fmt.Sprintf("key-%d", i), 1, "v"))
	}
	arc := node.Arc{Start: 0, Width: 1 << 62} // quarter of the ring
	keys := s.KeysInArc(arc)
	for _, k := range keys {
		if !arc.Contains(node.HashKey(k)) {
			t.Fatalf("key %q outside arc", k)
		}
	}
	// Roughly a quarter of keys (binomial, generous band).
	if len(keys) < 20 || len(keys) > 90 {
		t.Fatalf("arc holds %d of 200 keys, expected ≈50", len(keys))
	}
	// Digest equality for equal content, inequality after a change.
	s2 := newStore()
	for i := 199; i >= 0; i-- { // different insertion order
		s2.Apply(mk(fmt.Sprintf("key-%d", i), 1, "v"))
	}
	if s.DigestArc(arc) != s2.DigestArc(arc) {
		t.Fatal("digest differs for identical content")
	}
	s2.Apply(mk(keys[0], 2, "changed"))
	if s.DigestArc(arc) == s2.DigestArc(arc) {
		t.Fatal("digest unchanged after version bump")
	}
}

func TestVersionsInArc(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 3, "v"))
	vs := s.VersionsInArc(node.FullArc())
	if vs["a"].Seq != 3 {
		t.Fatalf("versions = %v", vs)
	}
}

// TestApplyConvergence is the LWW CRDT property: any permutation of any
// subset of writes that includes the maximal version converges to the
// same value.
func TestApplyConvergence(t *testing.T) {
	writes := make([]*tuple.Tuple, 8)
	for i := range writes {
		writes[i] = mk("k", uint64(i+1), fmt.Sprintf("v%d", i+1))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(rng)
		perm := rng.Perm(len(writes))
		for _, i := range perm {
			s.Apply(writes[i])
		}
		got, ok := s.Get("k")
		return ok && string(got.Value) == "v8"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestSkiplistLargeScale exercises ordering and lookup at a size that
// forces multiple levels.
func TestSkiplistLargeScale(t *testing.T) {
	s := newStore()
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	perm := rng.Perm(n)
	for _, i := range perm {
		s.Apply(mk(fmt.Sprintf("key-%08d", i), 1, "v"))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%08d", rng.Intn(n))
		if _, ok := s.Get(k); !ok {
			t.Fatalf("missing key %q", k)
		}
	}
	prev := ""
	violations := 0
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		if tp.Key <= prev && prev != "" {
			violations++
		}
		prev = tp.Key
		return true
	})
	if violations != 0 {
		t.Fatalf("%d ordering violations in scan", violations)
	}
}

func TestSegmentDigestsMatchSubArcDigests(t *testing.T) {
	s := newStore()
	for i := 0; i < 300; i++ {
		s.Apply(mk(fmt.Sprintf("seg-%d", i), uint64(i%7+1), "v"))
	}
	arcs := []node.Arc{
		{Start: 0, Width: 1 << 62},
		{Start: ^node.Point(0) - 1000, Width: 1 << 40}, // wraps
		node.FullArc(),
	}
	for _, arc := range arcs {
		for _, n := range []int{2, 8, 16} {
			digests, counts := s.SegmentDigests(arc, n)
			var total int
			for i := 0; i < n; i++ {
				sub := arc.SubArc(i, n)
				if want := s.DigestArc(sub); digests[i] != want {
					t.Fatalf("arc %v seg %d/%d: digest %016x, DigestArc(sub) %016x", arc, i, n, digests[i], want)
				}
				if want := len(s.KeysInArc(sub)); counts[i] != want {
					t.Fatalf("arc %v seg %d/%d: count %d, want %d", arc, i, n, counts[i], want)
				}
				total += counts[i]
			}
			if want := len(s.KeysInArc(arc)); total != want {
				t.Fatalf("arc %v: segment counts sum to %d, want %d", arc, total, want)
			}
		}
	}
}

func TestDiscardSetsResurrectionFloor(t *testing.T) {
	s := newStore()
	s.Apply(mk("k", 2, "v2"))
	// Discard with a keeper-confirmed floor of 3: the copy goes away and
	// neither the dropped version nor the floor version may come back.
	if !s.Discard("k", tuple.Version{Seq: 3, Writer: 1}) {
		t.Fatal("Discard did not remove the entry")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry survived Discard")
	}
	if f, ok := s.Floor("k"); !ok || f.Seq != 3 {
		t.Fatalf("floor = %v, %v; want seq 3", f, ok)
	}
	if s.Apply(mk("k", 2, "replay")) {
		t.Fatal("replayed old version resurrected a discarded copy")
	}
	if s.Apply(mk("k", 3, "replay")) {
		t.Fatal("floor version resurrected a discarded copy")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("replay landed despite floor")
	}
	// Strictly newer content is re-admitted and lifts the floor.
	if !s.Apply(mk("k", 4, "v4")) {
		t.Fatal("genuinely newer version refused")
	}
	if _, ok := s.Floor("k"); ok {
		t.Fatal("floor not lifted by newer apply")
	}
	if got, ok := s.Get("k"); !ok || string(got.Value) != "v4" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
}

func TestDiscardFloorDefaultsToStoredVersion(t *testing.T) {
	s := newStore()
	s.Apply(mk("k", 5, "v5"))
	// A zero floor argument still floors at the stored version.
	s.Discard("k", tuple.Version{})
	if s.Apply(mk("k", 5, "replay")) {
		t.Fatal("stored-version replay resurrected the copy")
	}
	if !s.Apply(mk("k", 6, "v6")) {
		t.Fatal("newer version refused")
	}
}

func TestFloorEvictionIsBounded(t *testing.T) {
	s := newStore()
	for i := 0; i < maxFloors+100; i++ {
		k := fmt.Sprintf("f-%d", i)
		s.Apply(mk(k, 1, "v"))
		s.Discard(k, tuple.Version{})
	}
	if len(s.floors) > maxFloors {
		t.Fatalf("floors grew to %d, cap is %d", len(s.floors), maxFloors)
	}
	// The newest floor survives; the oldest were evicted.
	if _, ok := s.Floor(fmt.Sprintf("f-%d", maxFloors+99)); !ok {
		t.Fatal("newest floor evicted")
	}
	if _, ok := s.Floor("f-0"); ok {
		t.Fatal("oldest floor not evicted")
	}
}

func TestFloorRingCompactsUnderDiscardReadmitCycles(t *testing.T) {
	s := newStore()
	// One key cycling through discard and re-admission forever must not
	// grow the ring bookkeeping while the floor map stays tiny.
	for i := 0; i < 2000; i++ {
		seq := uint64(i + 1)
		s.Apply(mk("cycle", seq, "v"))
		s.Discard("cycle", tuple.Version{Seq: seq, Writer: 1})
	}
	if len(s.floorRing) > 2*len(s.floors)+16 {
		t.Fatalf("floorRing grew to %d with only %d live floors", len(s.floorRing), len(s.floors))
	}
	// The surviving floor still works.
	if s.Apply(mk("cycle", 2000, "replay")) {
		t.Fatal("replay at the final floor version resurrected the copy")
	}
	if !s.Apply(mk("cycle", 2001, "newer")) {
		t.Fatal("newer version refused")
	}
}
