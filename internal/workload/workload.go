// Package workload generates the datasets, key-access distributions and
// churn regimes the experiments run against. The churn presets are
// scaled from the field studies the paper cites: DRAM error rates up to
// 8%/yr [10], disk replacement rates up to 13%/yr [11], and
// failure rates growing at least linearly with system size [12];
// transient reboots dominate permanent losses by an order of magnitude
// (§III-A).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// Key returns the canonical experiment key for index i.
func Key(i int) string { return fmt.Sprintf("key-%08d", i) }

// UniformKeys draws keys uniformly from [0, n).
func UniformKeys(n int, rng *rand.Rand) func() string {
	return func() string { return Key(rng.Intn(n)) }
}

// ZipfKeys draws keys Zipf-distributed over [0, n) with exponent s > 1
// (s≈1.07 matches YCSB's "zipfian" default skew shape).
func ZipfKeys(n int, s float64, rng *rand.Rand) func() string {
	if s <= 1 {
		s = 1.07
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() string { return Key(int(z.Uint64())) }
}

// NormalValues draws attribute values from N(mean, std²).
func NormalValues(mean, std float64, rng *rand.Rand) func() float64 {
	return func() float64 { return mean + std*rng.NormFloat64() }
}

// UniformValues draws attribute values from [lo, hi).
func UniformValues(lo, hi float64, rng *rand.Rand) func() float64 {
	return func() float64 { return lo + rng.Float64()*(hi-lo) }
}

// ParetoValues draws heavy-tailed values (xm minimum, alpha shape).
func ParetoValues(xm, alpha float64, rng *rand.Rand) func() float64 {
	return func() float64 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return xm / math.Pow(u, 1/alpha)
	}
}

// Dataset is a generated tuple population.
type Dataset struct {
	Tuples []*tuple.Tuple
}

// Options configure dataset generation.
type Options struct {
	// N is the tuple count.
	N int
	// Attr names the numeric attribute attached to every tuple ("" for
	// none).
	Attr string
	// Values draws attribute values (required when Attr != "").
	Values func() float64
	// Groups > 0 assigns each tuple, uniformly at random, to one of
	// Groups correlation tags ("grp-<i>"), modelling the related-item
	// sets of [18].
	Groups int
	// ValueBytes is the payload size. Zero means 16.
	ValueBytes int
}

// Generate builds a dataset with sequenced versions (seq 1, writer 1) —
// ready to inject into either store.
func Generate(opts Options, rng *rand.Rand) *Dataset {
	if opts.ValueBytes <= 0 {
		opts.ValueBytes = 16
	}
	d := &Dataset{Tuples: make([]*tuple.Tuple, 0, opts.N)}
	for i := 0; i < opts.N; i++ {
		t := &tuple.Tuple{
			Key:     Key(i),
			Value:   make([]byte, opts.ValueBytes),
			Version: tuple.Version{Seq: 1, Writer: 1},
		}
		rng.Read(t.Value)
		if opts.Attr != "" && opts.Values != nil {
			t.Attrs = map[string]float64{opts.Attr: opts.Values()}
		}
		if opts.Groups > 0 {
			t.Tags = []string{fmt.Sprintf("grp-%d", rng.Intn(opts.Groups))}
		}
		d.Tuples = append(d.Tuples, t)
	}
	return d
}

// ChurnPreset names a churn regime.
type ChurnPreset string

// Churn presets. Rates are per node per round; with a round ≈ 1 s of
// gossip period, Moderate corresponds to each node rebooting roughly
// every 30 minutes — far beyond the yearly hardware rates of [10][11],
// as §I argues churn (transient, software, reconfigurations) dominates
// hardware failure.
const (
	// ChurnNone disables churn (calibration baseline).
	ChurnNone ChurnPreset = "none"
	// ChurnLow: ~0.05%/round transient, rare permanent.
	ChurnLow ChurnPreset = "low"
	// ChurnModerate: ~0.5%/round transient.
	ChurnModerate ChurnPreset = "moderate"
	// ChurnHigh: ~2%/round transient — the "churn becomes the norm"
	// regime.
	ChurnHigh ChurnPreset = "high"
)

// ChurnConfig returns the simulator churn parameters for a preset. The
// transient:permanent ratio is 20:1 per §III-A ("it is more likely that
// nodes suffer from transient faults solved with a reboot than from
// permanent failures").
func ChurnConfig(p ChurnPreset) sim.ChurnConfig {
	switch p {
	case ChurnLow:
		return sim.ChurnConfig{TransientPerRound: 0.0005, PermanentPerRound: 0.000025, MeanDowntime: 10}
	case ChurnModerate:
		return sim.ChurnConfig{TransientPerRound: 0.005, PermanentPerRound: 0.00025, MeanDowntime: 10}
	case ChurnHigh:
		return sim.ChurnConfig{TransientPerRound: 0.02, PermanentPerRound: 0.001, MeanDowntime: 10}
	default:
		return sim.ChurnConfig{}
	}
}

// Mix describes a read/write operation mix (YCSB-style).
type Mix struct {
	ReadFraction float64
	Keys         func() string
}

// NextOp returns true for a read, false for a write.
func (m Mix) NextOp(rng *rand.Rand) bool {
	return rng.Float64() < m.ReadFraction
}
