// Ring-bucket digest index: the store's incremental answer to arc
// queries. The ring is cut into 2^bits fixed, equal buckets; each bucket
// carries the XOR entry-digest of its population and the entry list
// itself. Every Apply/Discard updates the owning bucket in O(1) (the XOR
// fold makes insert, remove, and version replacement symmetric), so
// serving DigestArc/SegmentDigests/ArcRefs/VersionsInArc costs
// O(|arc entries| + touched buckets) instead of a full store walk —
// whole buckets inside the arc are composed from their precomputed
// digests and only the (at most two) partial boundary buckets are
// scanned entry by entry.
//
// Entry lists are deterministic but unordered: removal is swap-delete
// via the bslot back-pointer each skipNode carries. No digest consumer
// needs ring- or key-ordered iteration (digests are order-independent
// XORs, version exchanges are maps, and the few callers that want key
// order sort their collected slice), and an unordered list keeps both
// add and remove O(1) instead of O(log bucket) — this is the one
// deliberate deviation from a Merkle-style ordered leaf list.
package store

import (
	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

const (
	// idxMinBits keeps a fresh store's index at 4 buckets — a few cache
	// lines, so the 100k almost-empty stores of a large simulation pay
	// nearly nothing for carrying an index each.
	idxMinBits = 2
	// idxMaxBits caps the index at 8192 buckets (~128 entries per bucket
	// at a million keys with idxGrowLoad=128... see maybeGrow).
	idxMaxBits = 13
	// idxGrowLoad is the mean bucket occupancy that triggers doubling;
	// the rebuild is O(total) but doubling makes it amortised O(1) per
	// insert.
	idxGrowLoad = 32
)

// ringBucket is one fixed slice [i<<shift, (i+1)<<shift) of the ring.
type ringBucket struct {
	digest uint64      // XOR of entryHash over ents
	ents   []*skipNode // bucket population, deterministic but unordered
}

// ringIndex is the bucket array plus its current resolution.
type ringIndex struct {
	bits    uint
	buckets []ringBucket
}

func newRingIndex() ringIndex {
	return ringIndex{bits: idxMinBits, buckets: make([]ringBucket, 1<<idxMinBits)}
}

func (ix *ringIndex) bucketOf(p node.Point) int {
	return int(uint64(p) >> (64 - ix.bits))
}

// add appends e to its bucket and folds its hash into the bucket digest.
func (ix *ringIndex) add(e *skipNode) {
	b := &ix.buckets[ix.bucketOf(e.point)]
	e.bslot = int32(len(b.ents))
	b.ents = append(b.ents, e)
	b.digest ^= entryHashPoint(e.point, e.tup.Version)
}

// remove swap-deletes e from its bucket and folds its hash back out.
func (ix *ringIndex) remove(e *skipNode) {
	b := &ix.buckets[ix.bucketOf(e.point)]
	b.digest ^= entryHashPoint(e.point, e.tup.Version)
	last := len(b.ents) - 1
	if m := b.ents[last]; m != e {
		b.ents[e.bslot] = m
		m.bslot = e.bslot
	}
	b.ents[last] = nil
	b.ents = b.ents[:last]
}

// replace re-folds the digest after an in-place version update (the
// entry keeps its bucket and slot: the point is unchanged).
func (ix *ringIndex) replace(p node.Point, oldV, newV tuple.Version) {
	b := &ix.buckets[ix.bucketOf(p)]
	b.digest ^= entryHashPoint(p, oldV) ^ entryHashPoint(p, newV)
}

// maybeGrow doubles the bucket count (possibly several times) once mean
// occupancy passes idxGrowLoad, rebuilding in one pass over the entries.
func (ix *ringIndex) maybeGrow(total int) {
	bits := ix.bits
	for bits < idxMaxBits && total > idxGrowLoad<<bits {
		bits++
	}
	if bits == ix.bits {
		return
	}
	old := ix.buckets
	ix.bits = bits
	ix.buckets = make([]ringBucket, 1<<bits)
	for i := range old {
		for _, e := range old[i].ents {
			ix.add(e)
		}
		old[i].ents = nil
	}
}

// forArcBuckets visits, in ring order from the arc's start, every bucket
// the arc touches. span is the bucket's own ring slice; whole reports
// that the bucket lies entirely inside the arc (its digest and entry
// list need no per-entry Contains filtering). Returning false from fn
// stops the walk. Buckets are visited at most once even for arcs that
// wrap around into their own first bucket.
func (ix *ringIndex) forArcBuckets(arc node.Arc, fn func(b *ringBucket, span node.Arc, whole bool) bool) {
	if arc.Width == 0 {
		return
	}
	shift := 64 - ix.bits
	bw := uint64(1) << shift
	nb := uint64(len(ix.buckets))
	// Buckets touched: ceil((offset-in-first-bucket + width) / bw),
	// capped at the bucket count. The o0+Width sum can wrap uint64 (an
	// arc covering almost the whole ring); that case touches every
	// bucket.
	o0 := uint64(arc.Start) & (bw - 1)
	count := nb
	if arc.Width <= ^uint64(0)-o0 {
		if c := (o0+arc.Width-1)/bw + 1; c < nb {
			count = c
		}
	}
	first := uint64(arc.Start) >> shift
	for k := uint64(0); k < count; k++ {
		bi := (first + k) & (nb - 1)
		start := node.Point(bi << shift)
		// Whole-bucket test: [start, start+bw) ⊆ [arc.Start,
		// arc.Start+Width) iff the bucket's offset into the arc leaves
		// room for its full width.
		whole := arc.Width >= bw && uint64(start-arc.Start) <= arc.Width-bw
		if !fn(&ix.buckets[bi], node.Arc{Start: start, Width: bw}, whole) {
			return
		}
	}
}

// entryHashPoint is entryHash with the key's ring position already in
// hand — bit-identical to entryHash(key, v), because the cached
// skipNode.point is exactly node.HashKey(key). This is what lets the
// index maintain digests without rehashing keys.
func entryHashPoint(p node.Point, v tuple.Version) uint64 {
	h := uint64(p)
	h ^= v.Seq * 0x9e3779b97f4a7c15
	h ^= uint64(v.Writer) * 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}
