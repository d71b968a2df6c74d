package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestKeyFormatSortable(t *testing.T) {
	if Key(5) >= Key(50) || Key(99) >= Key(100) {
		t.Fatal("keys not lexicographically ordered by index")
	}
}

func TestUniformKeysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	next := UniformKeys(100, rng)
	for i := 0; i < 1000; i++ {
		k := next()
		if !strings.HasPrefix(k, "key-") {
			t.Fatalf("key %q", k)
		}
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	next := ZipfKeys(1000, 1.2, rng)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[next()]++
	}
	// The hottest key should dominate: far above uniform share (20).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("hottest key count %d, expected heavy skew", max)
	}
	// Invalid s falls back to a sane default instead of panicking.
	_ = ZipfKeys(100, 0.5, rng)()
}

func TestNormalValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	next := NormalValues(50, 5, rng)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += next()
	}
	if mean := sum / n; math.Abs(mean-50) > 0.5 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestGenerateDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Generate(Options{
		N: 500, Attr: "price", Values: NormalValues(5, 1, rng),
		Groups: 10, ValueBytes: 8,
	}, rng)
	if len(d.Tuples) != 500 {
		t.Fatalf("tuples = %d", len(d.Tuples))
	}
	groups := map[string]bool{}
	for _, tp := range d.Tuples {
		if err := tp.Validate(); err != nil {
			t.Fatalf("invalid tuple: %v", err)
		}
		if len(tp.Value) != 8 {
			t.Fatalf("value bytes = %d", len(tp.Value))
		}
		if _, ok := tp.Attrs["price"]; !ok {
			t.Fatal("missing attr")
		}
		groups[tp.PrimaryTag()] = true
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d, want 10", len(groups))
	}
}

func TestChurnPresetsOrdered(t *testing.T) {
	low := ChurnConfig(ChurnLow)
	mod := ChurnConfig(ChurnModerate)
	high := ChurnConfig(ChurnHigh)
	if !(low.TransientPerRound < mod.TransientPerRound && mod.TransientPerRound < high.TransientPerRound) {
		t.Fatal("presets not ordered")
	}
	if ChurnConfig(ChurnNone).TransientPerRound != 0 {
		t.Fatal("none preset should be zero")
	}
	// Transient dominates permanent in every preset (§III-A).
	for _, c := range []string{"low", "moderate", "high"} {
		cc := ChurnConfig(ChurnPreset(c))
		if cc.TransientPerRound < 10*cc.PermanentPerRound {
			t.Fatalf("%s: transients should dominate permanents", c)
		}
	}
}
