package store

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// deepChecksum folds every entry's full content (key, version, deleted
// flag, value bytes, attrs, tags) into one hash, reading only.
// Unlike DigestArc it notices value/attr mutations, which is what the
// borrowed-iteration contract tests need to detect.
func deepChecksum(s *Store) uint64 {
	h := fnv.New64a()
	s.ForEachRef(func(t *tuple.Tuple) bool {
		fmt.Fprintf(h, "%s|%d@%d|%v|%x|%v|%v;", t.Key, t.Version.Seq, t.Version.Writer, t.Deleted, t.Value, t.Attrs, t.Tags)
		return true
	})
	return h.Sum64()
}

func seedStore(t *testing.T, n int) *Store {
	t.Helper()
	s := New(rand.New(rand.NewSource(7)))
	for i := 0; i < n; i++ {
		tp := &tuple.Tuple{
			Key:     fmt.Sprintf("key-%03d", i),
			Value:   []byte(fmt.Sprintf("value-%d", i)),
			Attrs:   map[string]float64{"v": float64(i), "w": float64(i % 7)},
			Tags:    []string{"t"},
			Version: tuple.Version{Seq: 1, Writer: 1},
		}
		if i%5 == 0 {
			tp.Deleted = true
		}
		if !s.Apply(tp) {
			t.Fatalf("apply %d rejected", i)
		}
	}
	return s
}

// TestScanRefMatchesForEachRef pins ScanRef against the full walk for
// starting points and limits: the entries from the first key >= from,
// tombstones included, in key order, cut at limit.
func TestScanRefMatchesForEachRef(t *testing.T) {
	s := seedStore(t, 40)
	var all []string
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		all = append(all, tp.Key)
		return true
	})
	for _, from := range []string{"", "key-010", "key-0355", "zzz"} {
		for _, limit := range []int{0, 1, 7} {
			var want, got []string
			for _, k := range all {
				if k >= from && (limit == 0 || len(want) < limit) {
					want = append(want, k)
				}
			}
			s.ScanRef(from, limit, func(tp *tuple.Tuple) bool {
				got = append(got, tp.Key)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("from=%q limit=%d: ScanRef=%v want %v", from, limit, got, want)
			}
		}
	}
}

// TestBorrowedIterationLeavesStoreIntact drives read-only passes over
// borrowed references and verifies the store's deep content checksum is
// unchanged — the detection half of the no-mutate contract.
func TestBorrowedIterationLeavesStoreIntact(t *testing.T) {
	s := seedStore(t, 64)
	before := deepChecksum(s)
	digestBefore := s.DigestArc(node.FullArc())

	var sum float64
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		if v, ok := tp.Attr("v"); ok {
			sum += v
		}
		return true
	})
	s.ScanRef("key-020", 10, func(tp *tuple.Tuple) bool {
		_ = tp.Point()
		return true
	})

	if got := deepChecksum(s); got != before {
		t.Fatalf("borrowed iteration changed store content: %016x -> %016x", before, got)
	}
	if got := s.DigestArc(node.FullArc()); got != digestBefore {
		t.Fatalf("borrowed iteration changed digest: %016x -> %016x", digestBefore, got)
	}
	_ = sum
}

// TestRefMutationIsDetectable proves the detection mechanism itself has
// teeth: a (contract-violating) mutation through a borrowed reference
// must change the deep checksum. If this test ever fails, the contract
// tests above are blind and must be fixed.
func TestRefMutationIsDetectable(t *testing.T) {
	s := seedStore(t, 8)
	before := deepChecksum(s)
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		if len(tp.Value) > 0 {
			tp.Value[0] ^= 0xff // deliberate contract violation
			return false
		}
		return true
	})
	if got := deepChecksum(s); got == before {
		t.Fatal("mutation through borrowed ref was not detected by deep checksum")
	}
	// Undo so other invariants (none here) are unaffected.
	s.ForEachRef(func(tp *tuple.Tuple) bool {
		if len(tp.Value) > 0 {
			tp.Value[0] ^= 0xff
			return false
		}
		return true
	})
}
