// Package node defines node identities and the key-space ring arithmetic
// shared by every layer of DataDroplets.
//
// The key space is the full uint64 circle: hashing a tuple key yields a
// Point on the ring, and both the structured soft-state layer and the
// epidemic sieves express responsibility as Arcs (wrap-around intervals)
// of that ring. Keeping the ring math in one package lets the sieve
// coverage invariant ("the sieves of all live nodes jointly cover the key
// space") be checked with exact interval arithmetic rather than sampling.
package node

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// ID identifies a node. IDs are opaque but stable for the lifetime of the
// process; the simulator allocates them densely from 1, the live transport
// derives them from listen addresses. ID 0 is reserved as "no node".
type ID uint64

// None is the zero ID, used to mean "no node".
const None ID = 0

// String renders the ID in the fixed-width hex form used in logs.
func (id ID) String() string {
	return fmt.Sprintf("n%04x", uint64(id))
}

// Point is a position on the uint64 key ring.
type Point uint64

// RingBits is the width of the ring in bits.
const RingBits = 64

// HashKey maps a tuple key onto the ring with FNV-1a followed by the
// murmur3 finalizer. FNV is stable across processes (unlike maphash),
// which matters because sieve decisions must be reproducible when the
// same write is disseminated twice; the finalizer restores the uniform
// spread short sequential keys lack under raw FNV (without it, a quarter
// arc was observed to capture 95% of sequential keys).
func HashKey(key string) Point {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return Point(fmix64(h.Sum64()))
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

// HashID maps a node ID onto the ring. A distinct prefix keeps node points
// decorrelated from key points with equal byte patterns.
func HashID(id ID) Point {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = 'n'
	for i := 0; i < 8; i++ {
		buf[1+i] = byte(uint64(id) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return Point(fmix64(h.Sum64()))
}

// HashPair maps an (id, key) pair onto the ring. Sieves use it to make
// per-node keep decisions that are deterministic yet uncorrelated between
// nodes, which is what makes epidemic re-delivery idempotent.
func HashPair(id ID, key string) Point {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(id) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(key))
	return Point(fmix64(h.Sum64()))
}

// Distance is the clockwise distance from a to b on the ring.
func Distance(a, b Point) uint64 {
	return uint64(b - a) // two's-complement wrap-around is exactly ring distance
}

// Arc is a half-open wrap-around interval [Start, Start+Width) on the ring.
// Width == math.MaxUint64 is treated as the full ring (the one-off
// inability of a uint64 width to express 2^64 is irrelevant at the scales
// the sieve uses, and FullArc makes the intent explicit).
type Arc struct {
	Start Point
	Width uint64
}

// FullArc covers the entire ring.
func FullArc() Arc {
	return Arc{Start: 0, Width: math.MaxUint64}
}

// ArcFromFraction builds an arc starting at start covering the given
// fraction of the ring, clamped to [0, 1].
func ArcFromFraction(start Point, fraction float64) Arc {
	if fraction <= 0 {
		return Arc{Start: start, Width: 0}
	}
	if fraction >= 1 {
		return FullArc()
	}
	w := uint64(fraction * math.MaxUint64)
	return Arc{Start: start, Width: w}
}

// Contains reports whether p lies in the arc.
func (a Arc) Contains(p Point) bool {
	return uint64(p-a.Start) < a.Width
}

// Fraction is the share of the ring the arc covers.
func (a Arc) Fraction() float64 {
	return float64(a.Width) / float64(math.MaxUint64)
}

// End is the first point after the arc (wraps around).
func (a Arc) End() Point {
	return a.Start + Point(a.Width)
}

// String renders the arc as [start,end) in hex.
func (a Arc) String() string {
	return fmt.Sprintf("[%016x,%016x)", uint64(a.Start), uint64(a.End()))
}

// Intersects reports whether the two arcs share any point. On a circle
// an overlap, when it exists, begins at one of the two start points, so
// two containment checks decide it exactly.
func (a Arc) Intersects(b Arc) bool {
	if a.Width == 0 || b.Width == 0 {
		return false
	}
	return a.Contains(b.Start) || b.Contains(a.Start)
}

// SubArc returns the i-th of n equal segments of the arc (0 <= i < n).
// The integer remainder of the division is folded into the last segment,
// so the n segments partition the arc exactly: every point of the arc
// lies in exactly one segment, and SegIndex agrees with the partition.
// The arc must satisfy Width >= n (callers with narrower arcs should not
// segment them).
func (a Arc) SubArc(i, n int) Arc {
	segWidth := a.Width / uint64(n)
	start := a.Start + Point(uint64(i)*segWidth)
	width := segWidth
	if i == n-1 {
		width = a.Width - uint64(n-1)*segWidth
	}
	return Arc{Start: start, Width: width}
}

// SegIndex returns which of the arc's n equal segments (see SubArc)
// contains p. The caller must ensure a.Contains(p) and Width >= n.
func (a Arc) SegIndex(p Point, n int) int {
	segWidth := a.Width / uint64(n)
	i := int(uint64(p-a.Start) / segWidth)
	if i > n-1 {
		i = n - 1 // remainder offsets fold into the last segment
	}
	return i
}

// span is a non-wrapping interval used internally by the coverage math.
type span struct{ lo, hi uint64 } // [lo, hi], inclusive hi to allow full-ring

// normalize splits wrap-around arcs into at most two linear spans.
func normalize(arcs []Arc) []span {
	out := make([]span, 0, len(arcs)+1)
	for _, a := range arcs {
		if a.Width == 0 {
			continue
		}
		lo := uint64(a.Start)
		if a.Width == math.MaxUint64 {
			out = append(out, span{0, math.MaxUint64})
			continue
		}
		hi := lo + a.Width - 1 // inclusive end
		if hi >= lo {
			out = append(out, span{lo, hi})
		} else { // wrapped
			out = append(out, span{lo, math.MaxUint64}, span{0, hi})
		}
	}
	return out
}

// CoverageFraction returns the exact fraction of the ring covered by the
// union of arcs. This is the quantitative form of the paper's no-data-loss
// requirement: "all the possibilities in the key space are covered".
func CoverageFraction(arcs []Arc) float64 {
	spans := normalize(arcs)
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var covered float64
	curLo, curHi := spans[0].lo, spans[0].hi
	for _, s := range spans[1:] {
		if s.lo <= curHi || s.lo == curHi+1 { // overlapping or adjacent
			if s.hi > curHi {
				curHi = s.hi
			}
			continue
		}
		covered += float64(curHi-curLo) + 1
		curLo, curHi = s.lo, s.hi
	}
	covered += float64(curHi-curLo) + 1
	f := covered / math.Exp2(RingBits)
	if f > 1 {
		f = 1
	}
	return f
}

// SuccessorIndex returns the index in points (which must be sorted
// ascending) of the first point >= p, wrapping to 0 past the end. This is
// the primitive behind consistent-hash lookup and ordered-overlay routing.
func SuccessorIndex(points []Point, p Point) int {
	i := sort.Search(len(points), func(i int) bool { return points[i] >= p })
	if i == len(points) {
		return 0
	}
	return i
}
