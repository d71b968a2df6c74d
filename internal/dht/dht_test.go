package dht

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

func ringWith(vnodes int, members ...node.ID) *Ring {
	r := NewRing(vnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func TestRingAddRemove(t *testing.T) {
	r := ringWith(8, 1, 2, 3)
	if r.Size() != 3 || !r.Has(2) {
		t.Fatalf("size/has wrong")
	}
	r.Add(2) // idempotent
	if len(r.points) != 3*8 {
		t.Fatalf("vnode count = %d, want 24", len(r.points))
	}
	r.Remove(2)
	if r.Has(2) || r.Size() != 2 || len(r.points) != 16 {
		t.Fatal("remove incomplete")
	}
	r.Remove(2) // idempotent
	if r.Size() != 2 {
		t.Fatal("double remove changed size")
	}
}

func TestLookupEmptyRing(t *testing.T) {
	r := NewRing(4)
	if r.Lookup(123) != node.None {
		t.Fatal("empty ring lookup should return None")
	}
	if r.LookupN(123, 3) != nil {
		t.Fatal("empty ring LookupN should return nil")
	}
}

func TestLookupDeterministicAndMemberOwned(t *testing.T) {
	r := ringWith(16, 1, 2, 3, 4, 5)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		a := r.LookupKey(key)
		b := r.LookupKey(key)
		if a != b {
			t.Fatal("lookup not deterministic")
		}
		if !r.Has(a) {
			t.Fatalf("lookup returned non-member %v", a)
		}
	}
}

func TestLookupNDistinct(t *testing.T) {
	r := ringWith(16, 1, 2, 3, 4, 5)
	owners := r.LookupN(node.HashKey("k"), 3)
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	seen := map[node.ID]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner in %v", owners)
		}
		seen[o] = true
	}
	// First owner must equal Lookup.
	if owners[0] != r.Lookup(node.HashKey("k")) {
		t.Fatal("LookupN[0] != Lookup")
	}
	// Asking for more replicas than members yields all members.
	if got := r.LookupN(node.HashKey("k"), 10); len(got) != 5 {
		t.Fatalf("over-asking returned %d owners", len(got))
	}
}

func TestRingBalance(t *testing.T) {
	// With enough virtual nodes the key share per member should be
	// reasonably even (that is their whole purpose).
	r := ringWith(64, 1, 2, 3, 4, 5, 6, 7, 8)
	counts := map[node.ID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.LookupKey(fmt.Sprintf("key-%d", i))]++
	}
	want := float64(keys) / 8
	for id, c := range counts {
		if math.Abs(float64(c)-want) > want*0.35 {
			t.Fatalf("member %v owns %d keys, want ≈%.0f ±35%%", id, c, want)
		}
	}
}

func TestMinimalDisruptionOnLeave(t *testing.T) {
	// Consistent hashing's defining property: removing one of n members
	// remaps only ≈1/n of the keys.
	r := ringWith(64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	const keys = 5000
	before := make([]node.ID, keys)
	for i := range before {
		before[i] = r.LookupKey(fmt.Sprintf("key-%d", i))
	}
	r.Remove(5)
	moved := 0
	for i := range before {
		if after := r.LookupKey(fmt.Sprintf("key-%d", i)); after != before[i] {
			if before[i] != 5 {
				t.Fatalf("key-%d moved from surviving member %v to %v", i, before[i], after)
			}
			moved++
		}
	}
	if moved < keys/20 || moved > keys/5 {
		t.Fatalf("moved %d of %d keys, want ≈%d", moved, keys, keys/10)
	}
}

func TestIntervalsCoverRingAndAgreeWithLookup(t *testing.T) {
	r := ringWith(8, 1, 2, 3, 4)
	ivs := r.Intervals(2)
	var arcs []node.Arc
	for _, iv := range ivs {
		arcs = append(arcs, iv.Arc)
		if len(iv.Owners) != 2 {
			t.Fatalf("interval owners = %v", iv.Owners)
		}
	}
	if cov := node.CoverageFraction(arcs); cov < 1-1e-9 {
		t.Fatalf("intervals cover %v of ring", cov)
	}
	// Spot-check: a point inside an interval resolves to its owner list.
	for _, iv := range ivs[:4] {
		p := iv.Arc.Start + node.Point(iv.Arc.Width/2)
		got := r.LookupN(p, 2)
		if got[0] != iv.Owners[0] {
			t.Fatalf("interval owner %v != lookup %v at %v", iv.Owners, got, p)
		}
	}
}

func TestSequencerMonotonic(t *testing.T) {
	s := NewSequencer(7)
	v1 := s.Next("k")
	v2 := s.Next("k")
	if !v1.Less(v2) {
		t.Fatalf("versions not increasing: %v then %v", v1, v2)
	}
	if v1.Writer != 7 {
		t.Fatalf("writer = %v", v1.Writer)
	}
	if got, ok := s.Latest("k"); !ok || got != v2 {
		t.Fatalf("Latest = %v", got)
	}
	if _, ok := s.Latest("other"); ok {
		t.Fatal("Latest for unknown key should miss")
	}
}

func TestSequencerObserveNeverRegresses(t *testing.T) {
	s := NewSequencer(1)
	s.Observe("k", tuple.Version{Seq: 10, Writer: 2})
	s.Observe("k", tuple.Version{Seq: 5, Writer: 2}) // stale: ignored
	if v, _ := s.Latest("k"); v.Seq != 10 {
		t.Fatalf("latest = %v", v)
	}
	next := s.Next("k")
	if next.Seq != 11 {
		t.Fatalf("next after observe = %v, want seq 11", next)
	}
}

func TestSequencerQuickMonotone(t *testing.T) {
	f := func(observes []uint16) bool {
		s := NewSequencer(3)
		var prev tuple.Version
		for _, o := range observes {
			s.Observe("k", tuple.Version{Seq: uint64(o), Writer: 9})
			v := s.Next("k")
			if !prev.Less(v) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSequencerWipe(t *testing.T) {
	s := NewSequencer(1)
	s.Next("k")
	s.Wipe()
	if _, ok := s.Latest("k"); ok {
		t.Fatal("wipe left state behind")
	}
	if len(s.Keys()) != 0 {
		t.Fatal("keys after wipe")
	}
}

func TestDirectoryHints(t *testing.T) {
	d := NewDirectory(3)
	d.AddHint("k", 1)
	d.AddHint("k", 2)
	d.AddHint("k", 1) // duplicate ignored
	if got := d.Hints("k"); len(got) != 2 {
		t.Fatalf("hints = %v", got)
	}
	d.AddHint("k", 3)
	d.AddHint("k", 4) // evicts oldest (1)
	got := d.Hints("k")
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("hints after eviction = %v", got)
	}
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
	d.Wipe()
	if d.Len() != 0 || len(d.Hints("k")) != 0 {
		t.Fatal("wipe incomplete")
	}
}

// TestLookupFirstMatchesLookupN pins the routing-hot-path equivalence:
// LookupFirst with a predicate must return exactly what scanning
// LookupN's full candidate list for the first acceptable member would,
// for every liveness subset shape the router can encounter.
func TestLookupFirstMatchesLookupN(t *testing.T) {
	r := NewRing(16)
	members := []node.ID{11, 22, 33, 44, 55}
	for _, id := range members {
		r.Add(id)
	}
	cases := []map[node.ID]bool{
		{11: true, 22: true, 33: true, 44: true, 55: true}, // all alive
		{22: true, 55: true}, // some alive
		{44: true},           // one alive
		{},                   // none alive
	}
	for ci, alive := range cases {
		for i := 0; i < 500; i++ {
			p := node.HashKey(fmt.Sprintf("key-%d", i))
			want := node.None
			for _, id := range r.LookupN(p, len(members)) {
				if alive[id] {
					want = id
					break
				}
			}
			got := r.LookupFirst(p, func(id node.ID) bool { return alive[id] })
			if got != want {
				t.Fatalf("case %d key %d: LookupFirst = %v, LookupN scan = %v", ci, i, got, want)
			}
		}
	}
	if got := NewRing(4).LookupFirst(node.HashKey("x"), func(node.ID) bool { return true }); got != node.None {
		t.Fatalf("empty ring LookupFirst = %v, want None", got)
	}
}
