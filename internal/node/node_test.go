package node

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestIDString(t *testing.T) {
	if got := ID(0x2a).String(); got != "n002a" {
		t.Fatalf("ID.String() = %q, want n002a", got)
	}
}

func TestHashKeyStable(t *testing.T) {
	// FNV-1a of "hello" is a published constant; stability across runs and
	// processes is what sieve determinism rests on.
	if HashKey("hello") != HashKey("hello") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("hello") == HashKey("world") {
		t.Fatal("HashKey collides on trivial inputs")
	}
	if uint64(HashKey("hello")) != fmix64(0xa430d84680aabd0b) {
		t.Fatalf("HashKey(hello) = %x, want finalized FNV-1a constant", uint64(HashKey("hello")))
	}
}

// TestHashKeyUniformTopBits guards against the raw-FNV clustering that
// originally put 95% of sequential keys into one quarter of the ring.
func TestHashKeyUniformTopBits(t *testing.T) {
	quarter := Arc{Start: 0, Width: 1 << 62}
	in := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if quarter.Contains(HashKey(fmt.Sprintf("key-%d", i))) {
			in++
		}
	}
	if in < n/4-200 || in > n/4+200 {
		t.Fatalf("quarter arc holds %d of %d sequential keys, want ≈%d", in, n, n/4)
	}
}

func TestHashPairDecorrelated(t *testing.T) {
	// Different nodes must make independent keep decisions for the same key.
	a := HashPair(1, "k")
	b := HashPair(2, "k")
	if a == b {
		t.Fatal("HashPair identical for different nodes")
	}
	if HashPair(1, "k") != a {
		t.Fatal("HashPair not deterministic")
	}
}

func TestDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want uint64
	}{
		{"forward", 10, 30, 20},
		{"zero", 7, 7, 0},
		{"wrap", math.MaxUint64 - 1, 3, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Distance(tt.a, tt.b); got != tt.want {
				t.Fatalf("Distance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestArcContains(t *testing.T) {
	tests := []struct {
		name string
		arc  Arc
		p    Point
		want bool
	}{
		{"inside", Arc{100, 50}, 120, true},
		{"start inclusive", Arc{100, 50}, 100, true},
		{"end exclusive", Arc{100, 50}, 150, false},
		{"outside", Arc{100, 50}, 99, false},
		{"wrap inside low", Arc{math.MaxUint64 - 10, 100}, 5, true},
		{"wrap inside high", Arc{math.MaxUint64 - 10, 100}, math.MaxUint64, true},
		{"wrap outside", Arc{math.MaxUint64 - 10, 100}, 200, false},
		{"empty", Arc{100, 0}, 100, false},
		{"full", FullArc(), 1234567, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.arc.Contains(tt.p); got != tt.want {
				t.Fatalf("%v.Contains(%d) = %v, want %v", tt.arc, tt.p, got, tt.want)
			}
		})
	}
}

func TestArcFromFraction(t *testing.T) {
	a := ArcFromFraction(0, 0.25)
	if got := a.Fraction(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Fraction = %v, want 0.25", got)
	}
	if ArcFromFraction(0, -1).Width != 0 {
		t.Fatal("negative fraction should clamp to empty arc")
	}
	if ArcFromFraction(0, 2) != FullArc() {
		t.Fatal("fraction > 1 should clamp to full arc")
	}
}

func TestCoverageFraction(t *testing.T) {
	tests := []struct {
		name string
		arcs []Arc
		want float64
	}{
		{"empty", nil, 0},
		{"full", []Arc{FullArc()}, 1},
		{"half", []Arc{ArcFromFraction(0, 0.5)}, 0.5},
		{"two disjoint quarters", []Arc{ArcFromFraction(0, 0.25), ArcFromFraction(Point(math.MaxUint64/2), 0.25)}, 0.5},
		{"overlapping halves", []Arc{ArcFromFraction(0, 0.5), ArcFromFraction(Point(math.MaxUint64/4), 0.5)}, 0.75},
		{"wrap plus head", []Arc{{Start: math.MaxUint64 - 999, Width: 2000}}, 2000 / math.Exp2(64)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CoverageFraction(tt.arcs)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("CoverageFraction = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSuccessorIndex(t *testing.T) {
	points := []Point{10, 20, 30}
	tests := []struct {
		p    Point
		want int
	}{
		{5, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 0},
	}
	for _, tt := range tests {
		if got := SuccessorIndex(points, tt.p); got != tt.want {
			t.Fatalf("SuccessorIndex(%d) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestSubArcPartitionsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		arc := Arc{Start: Point(rng.Uint64()), Width: rng.Uint64()}
		n := []int{2, 4, 8, 16}[trial%4]
		if arc.Width < uint64(n) {
			continue
		}
		// Segments must tile the arc: widths sum to the arc width and
		// each segment starts where the previous ended.
		var total uint64
		next := arc.Start
		for i := 0; i < n; i++ {
			sub := arc.SubArc(i, n)
			if sub.Start != next {
				t.Fatalf("segment %d/%d of %v starts at %v, want %v", i, n, arc, sub.Start, next)
			}
			total += sub.Width
			next = sub.End()
		}
		if total != arc.Width {
			t.Fatalf("segments of %v cover %d, want %d", arc, total, arc.Width)
		}
		// SegIndex must agree with segment membership for sampled points.
		for j := 0; j < 32; j++ {
			p := arc.Start + Point(rng.Uint64()%arc.Width)
			i := arc.SegIndex(p, n)
			if i < 0 || i >= n {
				t.Fatalf("SegIndex(%v) = %d out of range", p, i)
			}
			if !arc.SubArc(i, n).Contains(p) {
				t.Fatalf("point %v assigned to segment %d of %v which does not contain it", p, i, arc)
			}
		}
	}
}

func TestArcIntersects(t *testing.T) {
	a := Arc{Start: 100, Width: 100} // [100, 200)
	tests := []struct {
		b    Arc
		want bool
	}{
		{Arc{Start: 150, Width: 10}, true},             // inside
		{Arc{Start: 50, Width: 100}, true},             // overlaps the front
		{Arc{Start: 199, Width: 100}, true},            // overlaps the tail
		{Arc{Start: 200, Width: 50}, false},            // adjacent after
		{Arc{Start: 0, Width: 100}, false},             // adjacent before
		{Arc{Start: 0, Width: 0}, false},               // empty
		{FullArc(), true},                              // full ring
		{Arc{Start: ^Point(0) - 50, Width: 200}, true}, // wraps over start
	}
	for _, tt := range tests {
		if got := a.Intersects(tt.b); got != tt.want {
			t.Fatalf("%v.Intersects(%v) = %v, want %v", a, tt.b, got, tt.want)
		}
		if got := tt.b.Intersects(a); got != tt.want {
			t.Fatalf("%v.Intersects(%v) = %v, want %v (asymmetric)", tt.b, a, got, tt.want)
		}
	}
	if (Arc{Start: 0, Width: 0}).Intersects(Arc{Start: 0, Width: 0}) {
		t.Fatal("two empty arcs intersect")
	}
}
