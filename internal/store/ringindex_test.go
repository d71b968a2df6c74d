package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// Reference implementations: the pre-index full skiplist walks, kept as
// the differential-test oracle (and the baseline the benchmarks compare
// against). Any divergence between these and the bucket-served versions
// is an index-maintenance bug.

func refDigestArc(s *Store, arc node.Arc) uint64 {
	var d uint64
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if arc.Contains(e.point) {
			d ^= entryHash(e.key, e.tup.Version)
		}
	}
	return d
}

func refSegmentDigests(s *Store, arc node.Arc, n int) (digests []uint64, counts []int) {
	digests = make([]uint64, n)
	counts = make([]int, n)
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if arc.Contains(e.point) {
			i := arc.SegIndex(e.point, n)
			digests[i] ^= entryHash(e.key, e.tup.Version)
			counts[i]++
		}
	}
	return digests, counts
}

func refVersionsInArc(s *Store, arc node.Arc) map[string]tuple.Version {
	out := make(map[string]tuple.Version)
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if arc.Contains(e.point) {
			out[e.key] = e.tup.Version
		}
	}
	return out
}

func refKeysInArc(s *Store, arc node.Arc) []string {
	var out []string
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if arc.Contains(e.point) {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out
}

// checkIndexInvariants verifies the incremental index against a from-
// scratch recompute: every skiplist entry sits in exactly the bucket its
// point falls in, at the slot its bslot claims, and every bucket digest
// equals the XOR of its population's entry hashes.
func checkIndexInvariants(t *testing.T, s *Store) {
	t.Helper()
	ix := &s.idx
	inBucket := 0
	for bi := range ix.buckets {
		b := &ix.buckets[bi]
		var d uint64
		for slot, e := range b.ents {
			if got := ix.bucketOf(e.point); got != bi {
				t.Fatalf("entry %q point %x filed in bucket %d, belongs in %d", e.key, uint64(e.point), bi, got)
			}
			if int(e.bslot) != slot {
				t.Fatalf("entry %q bslot %d but sits at slot %d of bucket %d", e.key, e.bslot, slot, bi)
			}
			d ^= entryHashPoint(e.point, e.tup.Version)
		}
		if d != b.digest {
			t.Fatalf("bucket %d digest %x, recomputed %x", bi, b.digest, d)
		}
		inBucket += len(b.ents)
	}
	if inBucket != s.total {
		t.Fatalf("index holds %d entries, store total %d", inBucket, s.total)
	}
	walked := 0
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		walked++
	}
	if walked != s.total {
		t.Fatalf("skiplist holds %d entries, store total %d", walked, s.total)
	}
}

// checkServeMatchesRef compares every bucket-served arc query against
// its full-walk reference for one arc.
func checkServeMatchesRef(t *testing.T, s *Store, arc node.Arc) {
	t.Helper()
	if got, want := s.DigestArc(arc), refDigestArc(s, arc); got != want {
		t.Fatalf("DigestArc(%v) = %x, reference %x", arc, got, want)
	}
	for _, n := range []int{1, 2, 7, 16} {
		if arc.Width < uint64(n) {
			continue
		}
		gd, gc := s.SegmentDigests(arc, n)
		wd, wc := refSegmentDigests(s, arc, n)
		for i := 0; i < n; i++ {
			if gd[i] != wd[i] || gc[i] != wc[i] {
				t.Fatalf("SegmentDigests(%v, %d) seg %d = (%x, %d), reference (%x, %d)",
					arc, n, i, gd[i], gc[i], wd[i], wc[i])
			}
		}
	}
	gotV := s.VersionsInArc(arc)
	wantV := refVersionsInArc(s, arc)
	if len(gotV) != len(wantV) {
		t.Fatalf("VersionsInArc(%v): %d keys, reference %d", arc, len(gotV), len(wantV))
	}
	for k, v := range wantV {
		if gotV[k] != v {
			t.Fatalf("VersionsInArc(%v)[%q] = %v, reference %v", arc, k, gotV[k], v)
		}
	}
	ents := s.AppendVersionsInArc(nil, arc)
	if len(ents) != len(wantV) {
		t.Fatalf("AppendVersionsInArc(%v): %d entries, reference %d", arc, len(ents), len(wantV))
	}
	for i, e := range ents {
		if i > 0 && ents[i-1].Key >= e.Key {
			t.Fatalf("AppendVersionsInArc(%v) not key-sorted at %d: %q >= %q", arc, i, ents[i-1].Key, e.Key)
		}
		if wantV[e.Key] != e.Version {
			t.Fatalf("AppendVersionsInArc(%v)[%q] = %v, reference %v", arc, e.Key, e.Version, wantV[e.Key])
		}
		if e.Point != node.HashKey(e.Key) {
			t.Fatalf("AppendVersionsInArc(%v)[%q] carries point %x, HashKey %x",
				arc, e.Key, uint64(e.Point), uint64(node.HashKey(e.Key)))
		}
	}
	gotK := s.KeysInArc(arc)
	wantK := refKeysInArc(s, arc)
	if len(gotK) != len(wantK) {
		t.Fatalf("KeysInArc(%v): %d keys, reference %d", arc, len(gotK), len(wantK))
	}
	for i := range gotK {
		if gotK[i] != wantK[i] {
			t.Fatalf("KeysInArc(%v)[%d] = %q, reference %q", arc, i, gotK[i], wantK[i])
		}
	}
}

// randomArc draws arcs across the interesting shapes: pinpoint slivers,
// mid-size wrapping and non-wrapping arcs, near-full ring, full ring,
// and empty.
func randomArc(rng *rand.Rand) node.Arc {
	start := node.Point(rng.Uint64())
	switch rng.Intn(8) {
	case 0:
		return node.Arc{Start: start, Width: 0}
	case 1:
		return node.Arc{Start: start, Width: 1 + rng.Uint64()%64}
	case 2:
		return node.FullArc()
	case 3:
		return node.Arc{Start: start, Width: ^uint64(0) - 1 - rng.Uint64()%1024}
	default:
		return node.Arc{Start: start, Width: 1 + rng.Uint64()%(^uint64(0)-1)}
	}
}

// TestRingIndexDifferential drives a randomized apply/update/discard/
// clear-floor/wipe sequence and cross-checks every arc-serving API
// against the full-walk reference plus the from-scratch index invariants
// along the way. Floor-refused applies and tombstones are part of the op
// mix: both must leave the index exactly as hot paths left the skiplist.
func TestRingIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(rand.New(rand.NewSource(seed + 100)))
			var keys []string
			nextKey := 0
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // insert a fresh key (sometimes a tombstone)
					k := fmt.Sprintf("key-%d-%d", seed, nextKey)
					nextKey++
					tp := &tuple.Tuple{
						Key:     k,
						Value:   []byte("v"),
						Version: tuple.Version{Seq: uint64(1 + rng.Intn(4)), Writer: node.ID(1 + rng.Intn(3))},
						Deleted: rng.Intn(8) == 0,
					}
					if s.Apply(tp) {
						keys = append(keys, k)
					}
				case op < 7 && len(keys) > 0: // update an existing key (often stale → no-op)
					k := keys[rng.Intn(len(keys))]
					s.Apply(&tuple.Tuple{
						Key:     k,
						Value:   []byte("u"),
						Version: tuple.Version{Seq: uint64(1 + rng.Intn(8)), Writer: node.ID(1 + rng.Intn(3))},
						Deleted: rng.Intn(8) == 0,
					})
				case op < 8 && len(keys) > 0: // discard a key, with or without a floor above it
					i := rng.Intn(len(keys))
					k := keys[i]
					var floor tuple.Version
					if rng.Intn(2) != 0 {
						floor = tuple.Version{Seq: uint64(1 + rng.Intn(8)), Writer: 1}
					}
					s.Discard(k, floor)
					keys = append(keys[:i], keys[i+1:]...)
				case op < 9 && len(keys) > 0: // lift a floor, maybe re-apply (adoption path)
					k := keys[rng.Intn(len(keys))]
					s.ClearFloor(k)
					s.Apply(&tuple.Tuple{
						Key:     k,
						Value:   []byte("r"),
						Version: tuple.Version{Seq: uint64(1 + rng.Intn(8)), Writer: node.ID(1 + rng.Intn(3))},
					})
				default: // rare full wipe
					if rng.Intn(40) == 0 {
						s.Wipe()
						keys = keys[:0]
					}
				}
				if step%250 == 0 {
					checkIndexInvariants(t, s)
					for i := 0; i < 6; i++ {
						checkServeMatchesRef(t, s, randomArc(rng))
					}
				}
			}
			checkIndexInvariants(t, s)
			for i := 0; i < 32; i++ {
				checkServeMatchesRef(t, s, randomArc(rng))
			}
		})
	}
}

// TestRingIndexMillionKeys loads a million keys (forcing the index
// through every growth doubling to its cap) and differentials the
// serving APIs at scale, including the claim that a small arc's serve
// cost is a tiny fraction of the store.
func TestRingIndexMillionKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key differential is not a -short test")
	}
	s := newStore()
	const n = 1_000_000
	for i := 0; i < n; i++ {
		s.Apply(&tuple.Tuple{
			Key:     fmt.Sprintf("user:%07d", i),
			Value:   []byte("v"),
			Version: tuple.Version{Seq: uint64(1 + i%5), Writer: node.ID(1 + i%7)},
		})
	}
	if s.idx.bits != idxMaxBits {
		t.Fatalf("index at %d bits after %d keys, want cap %d", s.idx.bits, n, idxMaxBits)
	}
	checkIndexInvariants(t, s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		checkServeMatchesRef(t, s, randomArc(rng))
	}
	// A ≤1/16-width arc must be served by scanning only boundary-bucket
	// entries: two partial buckets ≈ 2/8192 of the store, far under 1%.
	ops0, scanned0, _ := s.ServeStats()
	small := node.Arc{Start: 0x12345678_9abcdef0, Width: ^uint64(0) / 16}
	if got, want := s.DigestArc(small), refDigestArc(s, small); got != want {
		t.Fatalf("small-arc digest %x, reference %x", got, want)
	}
	ops1, scanned1, _ := s.ServeStats()
	if ops1 != ops0+1 {
		t.Fatalf("serve ops %d -> %d, want one serve", ops0, ops1)
	}
	if perServe := scanned1 - scanned0; perServe > int64(n)/100 {
		t.Fatalf("small-arc serve scanned %d of %d entries — full scans are back", perServe, n)
	}
}

// TestSegmentDigestsNarrowArcPanics pins the documented arc.Width >= n
// contract: segmenting a narrower arc would truncate the segment width
// to zero and silently mis-bucket every entry, so it must panic instead.
func TestSegmentDigestsNarrowArcPanics(t *testing.T) {
	s := newStore()
	s.Apply(mk("a", 1, "v"))
	defer func() {
		if recover() == nil {
			t.Fatal("SegmentDigests(width 3, n=8) did not panic")
		}
	}()
	s.SegmentDigests(node.Arc{Start: 0, Width: 3}, 8)
}

// TestWipeResetsContentKeepsCounters pins Wipe semantics: all content,
// stats and floors gone, serve diagnostics kept, and
// the store fully usable (and index-consistent) afterwards.
func TestWipeResetsContentKeepsCounters(t *testing.T) {
	s := newStore()
	for i := 0; i < 500; i++ {
		s.Apply(mk(fmt.Sprintf("k%03d", i), 1, "v"))
	}
	s.Discard("k000", tuple.Version{Seq: 9, Writer: 1})
	s.DigestArc(node.FullArc())
	ops0, _, _ := s.ServeStats()
	s.Wipe()
	if s.Len() != 0 || s.Total() != 0 || s.Bytes() != 0 {
		t.Fatalf("after Wipe: Len=%d Total=%d Bytes=%d", s.Len(), s.Total(), s.Bytes())
	}
	if d := s.DigestArc(node.FullArc()); d != 0 {
		t.Fatalf("after Wipe: full-arc digest %x, want 0", d)
	}
	if _, ok := s.Floor("k000"); ok {
		t.Fatal("after Wipe: supersession floor survived")
	}
	if ops, _, _ := s.ServeStats(); ops <= ops0 {
		t.Fatalf("after Wipe: serve ops reset (%d <= %d), want kept", ops, ops0)
	}
	// The wiped store accepts the very version a floor once refused.
	if !s.Apply(mk("k000", 1, "back")) {
		t.Fatal("after Wipe: apply refused — floor leaked through")
	}
	checkIndexInvariants(t, s)
	checkServeMatchesRef(t, s, node.FullArc())
}

// TestServeStatsSmallArc pins the serve-cost counters' meaning at a
// moderate scale: a 1/16 arc over 20k keys must fold whole buckets and
// scan only a sliver of the store.
func TestServeStatsSmallArc(t *testing.T) {
	s := newStore()
	const n = 20_000
	for i := 0; i < n; i++ {
		s.Apply(mk(fmt.Sprintf("key%05d", i), 1, "v"))
	}
	ops0, scanned0, folded0 := s.ServeStats()
	arc := node.Arc{Start: 42, Width: ^uint64(0) / 16}
	s.DigestArc(arc)
	ops1, scanned1, folded1 := s.ServeStats()
	if ops1-ops0 != 1 {
		t.Fatalf("ops delta %d, want 1", ops1-ops0)
	}
	if folded1 <= folded0 {
		t.Fatal("small-arc digest folded no whole buckets")
	}
	if perServe := scanned1 - scanned0; perServe > n/10 {
		t.Fatalf("small-arc digest scanned %d of %d entries", perServe, n)
	}
}

func buildBenchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := New(rand.New(rand.NewSource(1)))
	for i := 0; i < n; i++ {
		s.Apply(&tuple.Tuple{
			Key:     fmt.Sprintf("user:%07d", i),
			Value:   []byte("v"),
			Version: tuple.Version{Seq: uint64(1 + i%5), Writer: node.ID(1 + i%7)},
		})
	}
	return s
}

// benchArc is the ≤1/16-width query arc of the serve benchmarks.
var benchArc = node.Arc{Start: 0x12345678_9abcdef0, Width: ^uint64(0) / 16}

var sinkDigest uint64

// BenchmarkDigestArc serves a 1/16 arc digest from the ring-bucket index
// over a 100k-key store. Gated in CI at 0 allocs/op.
func BenchmarkDigestArc(b *testing.B) {
	s := buildBenchStore(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = s.DigestArc(benchArc)
	}
}

// BenchmarkDigestArcFullScan is the pre-index full-store walk over the
// same arc — the baseline the ≥10× speedup claim is measured against.
func BenchmarkDigestArcFullScan(b *testing.B) {
	s := buildBenchStore(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = refDigestArc(s, benchArc)
	}
}

// BenchmarkDigestArcMillion is BenchmarkDigestArc at the 1M-key scale
// README's repair-cost paragraph cites.
func BenchmarkDigestArcMillion(b *testing.B) {
	s := buildBenchStore(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = s.DigestArc(benchArc)
	}
}

// BenchmarkDigestArcMillionFullScan is the 1M-key full-walk baseline.
func BenchmarkDigestArcMillionFullScan(b *testing.B) {
	s := buildBenchStore(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = refDigestArc(s, benchArc)
	}
}

var sinkDigests []uint64

// BenchmarkSegmentDigests serves an 8-segment vector for a 1/16 arc over
// 100k keys — the per-request cost of a segmented sync opener.
func BenchmarkSegmentDigests(b *testing.B) {
	s := buildBenchStore(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigests, _ = s.SegmentDigests(benchArc, 8)
	}
}

var sinkEntries []VersionEntry

// BenchmarkAppendVersionsInArc measures the reusable-buffer reconcile
// collection over a small arc of a 100k-key store.
func BenchmarkAppendVersionsInArc(b *testing.B) {
	s := buildBenchStore(b, 100_000)
	arc := node.Arc{Start: 0x12345678_9abcdef0, Width: ^uint64(0) / 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEntries = s.AppendVersionsInArc(sinkEntries[:0], arc)
	}
}
