// Package histogram provides the decentralized distribution-estimation
// machinery of §III-B1: equi-depth histograms describing how attribute
// values are distributed across the whole store, estimated epidemically.
//
// The estimator must survive two hazards the paper calls out explicitly:
// duplicates (every tuple exists r times because of replication) and
// churn. Both are addressed by building the estimate on a KMV (k minimum
// values) sketch keyed by tuple key: identical replicas hash identically,
// so merging sketches from any number of nodes in any order is idempotent
// — re-delivery, re-merging and rebooted nodes cannot bias the estimate.
// The k retained entries double as a uniform sample of distinct tuples,
// from which each node builds its local copy of the global equi-depth
// histogram. (The paper cites Adam2 [26] and gossip-based distribution
// estimation [27]; KMV sketch exchange achieves the same estimate with a
// simpler duplicate-insensitivity argument, which docs/DESIGN.md §3 records as a
// substitution.)
package histogram

import (
	"hash/fnv"
	"math"
	"sort"
)

// EquiDepth is an equi-depth (equal-frequency) histogram: bucket
// boundaries are empirical quantiles, so bucket width adapts to density —
// exactly the "sieves located near the mean ± standard deviation need to
// be much finer" behaviour §III-B1 wants from placement.
type EquiDepth struct {
	bounds []float64 // len = buckets+1, ascending
}

// BuildEquiDepth constructs a histogram with the given bucket count from
// samples. It returns nil when samples is empty or buckets < 1.
func BuildEquiDepth(samples []float64, buckets int) *EquiDepth {
	if len(samples) == 0 || buckets < 1 {
		return nil
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	bounds := make([]float64, buckets+1)
	for i := 0; i <= buckets; i++ {
		q := float64(i) / float64(buckets)
		idx := int(q * float64(len(s)-1))
		bounds[i] = s[idx]
	}
	return &EquiDepth{bounds: bounds}
}

// Buckets returns the number of buckets.
func (h *EquiDepth) Buckets() int { return len(h.bounds) - 1 }

// Min and Max return the histogram support.
func (h *EquiDepth) Min() float64 { return h.bounds[0] }

// Max returns the upper end of the support.
func (h *EquiDepth) Max() float64 { return h.bounds[len(h.bounds)-1] }

// CDF returns the estimated cumulative probability at x, with linear
// interpolation inside buckets.
func (h *EquiDepth) CDF(x float64) float64 {
	n := h.Buckets()
	if x < h.bounds[0] {
		return 0
	}
	if x >= h.bounds[n] {
		return 1
	}
	i := sort.SearchFloat64s(h.bounds, x)
	if i > 0 && h.bounds[i] > x {
		i--
	}
	if i >= n {
		return 1
	}
	lo, hi := h.bounds[i], h.bounds[i+1]
	frac := 0.0
	if hi > lo {
		frac = (x - lo) / (hi - lo)
	}
	return (float64(i) + frac) / float64(n)
}

// Quantile returns the value at cumulative probability q with linear
// interpolation.
func (h *EquiDepth) Quantile(q float64) float64 {
	n := h.Buckets()
	if q <= 0 {
		return h.bounds[0]
	}
	if q >= 1 {
		return h.bounds[n]
	}
	pos := q * float64(n)
	i := int(pos)
	frac := pos - float64(i)
	return h.bounds[i] + frac*(h.bounds[i+1]-h.bounds[i])
}

// Bounds returns a copy of the bucket boundaries.
func (h *EquiDepth) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// KSAgainstSamples returns the Kolmogorov–Smirnov distance between the
// histogram's CDF and the empirical CDF of the given samples — the
// accuracy metric for experiment C9.
func (h *EquiDepth) KSAgainstSamples(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	n := float64(len(s))
	var ks float64
	for i, x := range s {
		emp := float64(i+1) / n
		est := h.CDF(x)
		if d := math.Abs(emp - est); d > ks {
			ks = d
		}
		// Also probe just below x (empirical CDF has jumps).
		if d := math.Abs(float64(i)/n - est); d > ks {
			ks = d
		}
	}
	return ks
}

// KMVEntry is one retained minimum: the item's hash and its attribute
// value. Exported because sketches travel in gossip messages.
type KMVEntry struct {
	Hash  uint64
	Value float64
}

// KMV is a k-minimum-values sketch over keyed items. It estimates the
// number of distinct items and retains, for each of the k smallest
// hashes, the item's attribute value — a uniform sample over distinct
// items, immune to replication-induced duplicates.
type KMV struct {
	k       int
	entries []KMVEntry // sorted ascending by Hash, no duplicate hashes
	scratch []KMVEntry // recycled backing array for MergeEntries
	// shared marks the entries backing array as referenced by an
	// in-flight message payload (see SharedEntries): the next mutation
	// must copy-on-write instead of editing or recycling it, so the
	// published buffer stays frozen forever.
	shared bool
}

// NewKMV creates a sketch retaining k minima. k trades accuracy
// (stderr ≈ 1/sqrt(k-2)) for message size.
func NewKMV(k int) *KMV {
	if k < 2 {
		k = 2
	}
	return &KMV{k: k, entries: make([]KMVEntry, 0, k)}
}

// K returns the sketch capacity.
func (s *KMV) K() int { return s.k }

// HashKey hashes an item key for sketch insertion. A salt (e.g. the
// estimation epoch) decorrelates successive epochs. The murmur3 finalizer
// on top of FNV-1a matters: KMV needs uniformity in the extreme low order
// statistics, and raw FNV clusters there on sequential key patterns
// (measured 2-3x distinct-count bias at 50k keys without it).
func HashKey(key string, salt uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 64-bit finalizer: full avalanche over all bits.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts an item by key.
func (s *KMV) Add(key string, salt uint64, value float64) {
	s.AddHashed(HashKey(key, salt), value)
}

// AddHashed inserts a pre-hashed item.
func (s *KMV) AddHashed(h uint64, value float64) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Hash >= h })
	if i < len(s.entries) && s.entries[i].Hash == h {
		return // duplicate item: idempotent
	}
	if len(s.entries) == s.k && i == s.k {
		return // larger than current maxima
	}
	s.ensureOwned()
	s.entries = append(s.entries, KMVEntry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = KMVEntry{Hash: h, Value: value}
	if len(s.entries) > s.k {
		s.entries = s.entries[:s.k]
	}
}

// ensureOwned makes the entries array private again before a mutation:
// if a message payload still references it, the sketch moves to a fresh
// copy and leaves the published buffer untouched.
func (s *KMV) ensureOwned() {
	if !s.shared {
		return
	}
	s.shared = false
	fresh := make([]KMVEntry, len(s.entries), s.k+1)
	copy(fresh, s.entries)
	s.entries = fresh
}

// Merge folds another sketch into this one. Merging is commutative,
// associative and idempotent — the properties gossip exchange needs.
func (s *KMV) Merge(o *KMV) {
	if o == nil {
		return
	}
	s.MergeEntries(o.entries)
}

// MergeEntries folds wire entries directly into the sketch, with no
// intermediate sketch built per message.
// When the input is strictly sorted ascending by hash (the Entries wire
// format) a single linear merge replaces per-entry binary search +
// insertion; otherwise the whole input goes through AddHashed. Either
// path yields the same set-union-of-minima.
func (s *KMV) MergeEntries(entries []KMVEntry) {
	if len(entries) == 0 {
		return
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Hash <= entries[i-1].Hash {
			for _, e := range entries {
				s.AddHashed(e.Hash, e.Value)
			}
			return
		}
	}
	// Both sides sorted: linear merge keeping the k smallest distinct
	// hashes. Once merged is full every remaining candidate on either
	// side has a larger hash, so dropping the rests is exact.
	merged := s.scratch[:0]
	if cap(merged) == 0 {
		// No recyclable scratch (the previous backing array left with a
		// shared payload): size the buffer up front rather than paying
		// append's growth ladder on every post-share merge.
		merged = make([]KMVEntry, 0, s.k+1)
	}
	i, j := 0, 0
	for len(merged) < s.k && (i < len(s.entries) || j < len(entries)) {
		switch {
		case i >= len(s.entries):
			merged = append(merged, entries[j])
			j++
		case j >= len(entries):
			merged = append(merged, s.entries[i])
			i++
		case s.entries[i].Hash < entries[j].Hash:
			merged = append(merged, s.entries[i])
			i++
		case s.entries[i].Hash > entries[j].Hash:
			merged = append(merged, entries[j])
			j++
		default: // equal hash: keep ours (AddHashed ignores duplicates)
			merged = append(merged, s.entries[i])
			i++
			j++
		}
	}
	if s.shared {
		// The outgoing array belongs to an in-flight payload now; it must
		// not be recycled into the scratch buffer, where the next merge
		// would overwrite it.
		s.shared = false
		s.scratch = nil
	} else {
		s.scratch = s.entries[:0] // recycle the old backing array
	}
	s.entries = merged
}

// Entries returns a copy of the retained minima.
func (s *KMV) Entries() []KMVEntry {
	out := make([]KMVEntry, len(s.entries))
	copy(out, s.entries)
	return out
}

// SharedEntries returns the retained minima as a buffer shared with the
// sketch itself: zero-copy, for use as an immutable message payload (the
// exchange path sends the same ~4 KiB sketch to peers round after round,
// and the per-envelope copy was a named scale ceiling). The caller must
// treat the slice as frozen; the sketch copy-on-writes before its next
// mutation, so the returned buffer never changes after this call.
func (s *KMV) SharedEntries() []KMVEntry {
	if len(s.entries) == 0 {
		return nil
	}
	s.shared = true
	return s.entries
}

// DistinctEstimate estimates the number of distinct items seen.
func (s *KMV) DistinctEstimate() float64 {
	n := len(s.entries)
	if n < s.k {
		return float64(n) // sketch not full: exact
	}
	// (k-1) / u_(k) with u normalised to (0,1).
	kth := float64(s.entries[n-1].Hash) / math.Exp2(64)
	if kth <= 0 {
		return float64(n)
	}
	return float64(s.k-1) / kth
}

// Values returns the attribute values of the retained sample.
func (s *KMV) Values() []float64 {
	out := make([]float64, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.Value
	}
	return out
}

// Len returns the number of retained entries.
func (s *KMV) Len() int { return len(s.entries) }

// Clone returns a deep copy.
func (s *KMV) Clone() *KMV {
	c := NewKMV(s.k)
	c.entries = append(c.entries[:0], s.entries...)
	return c
}
