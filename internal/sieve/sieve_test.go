package sieve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datadroplets/internal/histogram"
	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

func fixedSize(n float64) func() float64 { return func() float64 { return n } }

func tup(key string) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Version: tuple.Version{Seq: 1, Writer: 1}}
}

func tupAttr(key string, attr string, v float64) *tuple.Tuple {
	t := tup(key)
	t.Attrs = map[string]float64{attr: v}
	return t
}

func tupTag(key, tag string) *tuple.Tuple {
	t := tup(key)
	t.Tags = []string{tag}
	return t
}

func TestUniformKeepRate(t *testing.T) {
	const n = 100
	const r = 5
	s := NewUniform(7, Config{Replication: r, SizeEstimate: fixedSize(n)})
	kept := 0
	const items = 20000
	for i := 0; i < items; i++ {
		if s.Keep(tup(fmt.Sprintf("key-%d", i))) {
			kept++
		}
	}
	want := float64(items) * r / n
	got := float64(kept)
	if math.Abs(got-want) > want*0.15 {
		t.Fatalf("kept %d of %d, want ≈%.0f (r/N̂)", kept, items, want)
	}
	if g := s.Grain(); math.Abs(g-float64(r)/n) > 1e-12 {
		t.Fatalf("grain = %v", g)
	}
}

func TestUniformDeterministic(t *testing.T) {
	s := NewUniform(7, Config{Replication: 3, SizeEstimate: fixedSize(50)})
	tt := tup("stable-key")
	first := s.Keep(tt)
	for i := 0; i < 10; i++ {
		if s.Keep(tt) != first {
			t.Fatal("keep decision not deterministic")
		}
	}
}

func TestUniformIndependentAcrossNodes(t *testing.T) {
	// The number of keepers of one key across n nodes should be ~Binomial(n, r/n).
	const n = 200
	const r = 4
	sieves := make([]*Uniform, n)
	for i := range sieves {
		sieves[i] = NewUniform(node.ID(i+1), Config{Replication: r, SizeEstimate: fixedSize(n)})
	}
	var totalKeepers int
	const keys = 500
	for k := 0; k < keys; k++ {
		tt := tup(fmt.Sprintf("key-%d", k))
		for _, s := range sieves {
			if s.Keep(tt) {
				totalKeepers++
			}
		}
	}
	mean := float64(totalKeepers) / keys
	if math.Abs(mean-r) > 0.5 {
		t.Fatalf("mean keepers per key = %v, want ≈%d", mean, r)
	}
}

func TestUniformCapacityFactor(t *testing.T) {
	big := NewUniform(1, Config{Replication: 2, SizeEstimate: fixedSize(100), CapacityFactor: 3})
	small := NewUniform(1, Config{Replication: 2, SizeEstimate: fixedSize(100), CapacityFactor: 0.5})
	if big.Grain() <= small.Grain() {
		t.Fatal("capacity factor did not scale grain")
	}
	if math.Abs(big.Grain()-0.06) > 1e-12 {
		t.Fatalf("big grain = %v, want 0.06", big.Grain())
	}
}

func TestRangeKeepMatchesArcs(t *testing.T) {
	s := NewRange(3, Config{Replication: 4, SizeEstimate: fixedSize(50), VirtualArcs: 4})
	arcs := s.Arcs()
	if len(arcs) != 4 {
		t.Fatalf("arcs = %d, want 4", len(arcs))
	}
	for i := 0; i < 5000; i++ {
		tt := tup(fmt.Sprintf("key-%d", i))
		inArc := false
		p := tt.Point()
		for _, a := range arcs {
			if a.Contains(p) {
				inArc = true
				break
			}
		}
		if s.Keep(tt) != inArc {
			t.Fatalf("Keep disagrees with Arcs for %q", tt.Key)
		}
	}
}

func TestRangeKeepRate(t *testing.T) {
	const n, r = 100, 6
	s := NewRange(9, Config{Replication: r, SizeEstimate: fixedSize(n)})
	kept := 0
	const items = 30000
	for i := 0; i < items; i++ {
		if s.Keep(tup(fmt.Sprintf("key-%d", i))) {
			kept++
		}
	}
	want := float64(items) * r / n
	if math.Abs(float64(kept)-want) > want*0.25 {
		t.Fatalf("kept %d, want ≈%.0f", kept, want)
	}
}

func TestRangeStableAcrossRestarts(t *testing.T) {
	cfg := Config{Replication: 3, SizeEstimate: fixedSize(80)}
	a := NewRange(5, cfg)
	b := NewRange(5, cfg) // "rebooted" node rebuilds the same sieve
	for i := 0; i < 1000; i++ {
		tt := tup(fmt.Sprintf("key-%d", i))
		if a.Keep(tt) != b.Keep(tt) {
			t.Fatal("sieve not stable across restarts")
		}
	}
}

func TestQuantileEqualMassPerNode(t *testing.T) {
	// Normal data: every node should keep ≈ r/N̂ of tuples even though
	// value density varies wildly — the load-balance property.
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	h := histogram.BuildEquiDepth(samples, 40)
	const n, r = 50, 3
	var loads []int
	for id := node.ID(1); id <= n; id++ {
		s := NewQuantile(id, "x", func() *histogram.EquiDepth { return h },
			Config{Replication: r, SizeEstimate: fixedSize(n)})
		kept := 0
		for i, v := range samples {
			if s.Keep(tupAttr(fmt.Sprintf("key-%d", i), "x", v)) {
				kept++
			}
		}
		loads = append(loads, kept)
	}
	want := float64(len(samples)) * r / n
	var mean float64
	for _, l := range loads {
		mean += float64(l)
	}
	mean /= n
	if math.Abs(mean-want) > want*0.25 {
		t.Fatalf("mean load %v, want ≈%v", mean, want)
	}
}

func TestQuantileCollocatesNearbyValues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	h := histogram.BuildEquiDepth(samples, 40)
	s := NewQuantile(4, "x", func() *histogram.EquiDepth { return h },
		Config{Replication: 5, SizeEstimate: fixedSize(20), VirtualArcs: 1})
	// Find a kept value, then check its close neighbours are kept too.
	var base float64
	found := false
	for _, v := range samples {
		if s.Keep(tupAttr("probe", "x", v)) {
			base, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("sieve kept nothing")
	}
	// Values within a tiny CDF neighbourhood of base should also be kept
	// (single contiguous quantile interval per virtual arc).
	for _, dv := range []float64{-1e-4, 1e-4} {
		if !s.Keep(tupAttr("probe2", "x", base+dv)) {
			t.Fatalf("value %v adjacent to kept %v was rejected", base+dv, base)
		}
	}
}

func TestQuantileFallbackWithoutHistogramOrAttr(t *testing.T) {
	s := NewQuantile(4, "x", func() *histogram.EquiDepth { return nil },
		Config{Replication: 5, SizeEstimate: fixedSize(10)})
	// Without a histogram the decision must still be deterministic and
	// follow the fallback range sieve.
	tt := tup("some-key")
	if s.Keep(tt) != s.fallback.Keep(tt) {
		t.Fatal("fallback mismatch without histogram")
	}
	rngH := histogram.BuildEquiDepth([]float64{1, 2, 3}, 2)
	s2 := NewQuantile(4, "x", func() *histogram.EquiDepth { return rngH },
		Config{Replication: 5, SizeEstimate: fixedSize(10)})
	noAttr := tup("key-without-attr")
	if s2.Keep(noAttr) != s2.fallback.Keep(noAttr) {
		t.Fatal("fallback mismatch for tuple without the attribute")
	}
}

func TestTagCollocation(t *testing.T) {
	const n, r = 40, 3
	sieves := make([]*Tag, n)
	for i := range sieves {
		sieves[i] = NewTag(node.ID(i+1), Config{Replication: r, SizeEstimate: fixedSize(n)})
	}
	// All tuples with the same tag must land on exactly the same nodes.
	for tagID := 0; tagID < 30; tagID++ {
		tag := fmt.Sprintf("user-%d", tagID)
		var keepers []int
		for i, s := range sieves {
			if s.Keep(tupTag(fmt.Sprintf("%s/item-0", tag), tag)) {
				keepers = append(keepers, i)
			}
		}
		for item := 1; item < 5; item++ {
			for i, s := range sieves {
				want := false
				for _, k := range keepers {
					if k == i {
						want = true
					}
				}
				if got := s.Keep(tupTag(fmt.Sprintf("%s/item-%d", tag, item), tag)); got != want {
					t.Fatalf("tag %q item %d not collocated on node %d", tag, item, i)
				}
			}
		}
	}
}

func TestCoverageAnalysis(t *testing.T) {
	const n, r = 60, 4
	sieves := make([]ArcSieve, n)
	for i := range sieves {
		sieves[i] = NewRange(node.ID(i+1), Config{Replication: r, SizeEstimate: fixedSize(n)})
	}
	rep := AnalyzeArcs(sieves, 2048)
	// Expected mean replicas = n * r/n = r.
	if math.Abs(rep.MeanReplicas-r) > 1 {
		t.Fatalf("mean replicas = %v, want ≈%d", rep.MeanReplicas, r)
	}
	// With r=4 random arcs coverage should be high but maybe not full.
	if rep.Fraction < 0.9 {
		t.Fatalf("coverage = %v, suspiciously low", rep.Fraction)
	}
	if rep.MaxReplicas < rep.MinReplicas {
		t.Fatal("replica stats inconsistent")
	}
}

func TestCoverageDetectsGap(t *testing.T) {
	// Two tiny sieves cannot cover the ring: the report must say so.
	sieves := []ArcSieve{
		NewRange(1, Config{Replication: 1, SizeEstimate: fixedSize(1000)}),
		NewRange(2, Config{Replication: 1, SizeEstimate: fixedSize(1000)}),
	}
	rep := AnalyzeArcs(sieves, 1024)
	if rep.FullyCovered() {
		t.Fatal("two 0.1% sieves reported as full coverage")
	}
	if rep.MinReplicas != 0 {
		t.Fatalf("minReplicas = %d, want 0", rep.MinReplicas)
	}
}

func TestUniformCoverageProbability(t *testing.T) {
	// 1-(1-r/n)^n ≈ 1-e^-r.
	got := UniformCoverageProbability(3, 10000)
	want := 1 - math.Exp(-3)
	if math.Abs(got-want) > 0.001 {
		t.Fatalf("p = %v, want ≈%v", got, want)
	}
	if UniformCoverageProbability(5, 0) != 0 {
		t.Fatal("n=0 should yield 0")
	}
	if UniformCoverageProbability(10, 5) != 1 {
		t.Fatal("r>n should yield 1")
	}
}

func TestExpectedReplicas(t *testing.T) {
	// Full dissemination: coverage 1 → r replicas expected.
	if got := ExpectedReplicasUnderPartialDissemination(5, 1000, 1); math.Abs(got-5) > 1e-9 {
		t.Fatalf("full coverage replicas = %v", got)
	}
	// 60% coverage → 0.6*r.
	if got := ExpectedReplicasUnderPartialDissemination(5, 1000, 0.6); math.Abs(got-3) > 1e-9 {
		t.Fatalf("partial coverage replicas = %v", got)
	}
}

func TestQuantileValueBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	h := histogram.BuildEquiDepth(samples, 30)
	s := NewQuantile(2, "x", func() *histogram.EquiDepth { return h },
		Config{Replication: 2, SizeEstimate: fixedSize(20), VirtualArcs: 2})
	bounds := s.ValueBounds()
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
	for _, b := range bounds {
		if b[0] > b[1] && !(b[1] < b[0] && b[0] > h.Quantile(0.9)) {
			// Wrap-around intervals are allowed only near the CDF ends.
			t.Fatalf("bound %v inverted", b)
		}
	}
}
