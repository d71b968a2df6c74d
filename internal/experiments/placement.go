package experiments

import (
	"math/rand"
	"sort"

	"datadroplets/internal/histogram"
	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/sieve"
	"datadroplets/internal/tuple"
	"datadroplets/internal/workload"
)

func init() {
	register("C4", runC4)
	register("C10", runC10)
}

// runC4 validates the sieve mechanics of §III-A: storage balance under
// the uniform sieve, exact coverage/replication of range sieves, and
// grain scaling for heterogeneous capacities.
func runC4(p Params) *Result {
	res := &Result{
		ID:    "C4",
		Title: "Sieve storage balance, coverage and heterogeneous grain",
	}
	n := p.scaled(500, 100)
	items := p.scaled(20000, 4000)
	r := 4
	rng := rand.New(rand.NewSource(p.Seed))
	ds := workload.Generate(workload.Options{N: items}, rng)

	// Uniform sieve balance.
	loads := metrics.NewDist(n)
	for i := 0; i < n; i++ {
		sv := sieve.NewUniform(node.ID(i+1), sieve.Config{
			Replication:  r,
			SizeEstimate: func() float64 { return float64(n) },
		})
		kept := 0
		for _, t := range ds.Tuples {
			if sv.Keep(t) {
				kept++
			}
		}
		loads.Observe(float64(kept))
	}
	balance := metrics.NewTable("uniform sieve per-node load (items kept)",
		"N", "items", "r", "target r*items/N", "mean", "p01", "p50", "p99", "max/mean")
	target := float64(r*items) / float64(n)
	balance.AddRow(n, items, r, target, loads.Mean(),
		loads.Quantile(0.01), loads.Quantile(0.5), loads.Quantile(0.99),
		loads.Max()/loads.Mean())
	res.Tables = append(res.Tables, balance)

	// Range sieve coverage: the no-data-loss invariant, swept over r.
	cov := metrics.NewTable("range sieve coverage (exact interval union)",
		"r", "coverage fraction", "min replicas", "mean replicas", "max replicas", "fully covered")
	for _, rr := range []int{1, 2, 3, 4, 8} {
		rep := sieve.AnalyzeArcs(rangeSieves(n, rr, nil), 4096)
		cov.AddRow(rr, rep.Fraction, rep.MinReplicas, rep.MeanReplicas, rep.MaxReplicas, rep.FullyCovered())
	}
	res.Tables = append(res.Tables, cov)

	// Heterogeneous capacity: grain follows the capacity factor.
	het := metrics.NewTable("heterogeneous sieve grain (capacity factor -> load share)",
		"capacity factor", "mean load", "load / uniform load")
	for _, cf := range []float64{0.5, 1, 2, 4} {
		sv := sieve.NewUniform(7, sieve.Config{
			Replication:    r,
			SizeEstimate:   func() float64 { return float64(n) },
			CapacityFactor: cf,
		})
		kept := 0
		for _, t := range ds.Tuples {
			if sv.Keep(t) {
				kept++
			}
		}
		het.AddRow(cf, kept, float64(kept)/target)
	}
	res.Tables = append(res.Tables, het)
	res.Notes = append(res.Notes,
		"expected shape: uniform sieve load ≈ Binomial(items, r/N) — tight around r*items/N",
		"expected shape: range-sieve coverage rises with r; r>=3 covers the ring with overwhelming probability; heterogeneous load scales linearly with the capacity factor")
	return res
}

// runC10 compares placement families on skewed data (§III-B1): the
// distribution-aware quantile sieve should match hash placement's load
// balance while collocating value-adjacent tuples, and the tag sieve
// should collocate correlated groups.
func runC10(p Params) *Result {
	res := &Result{
		ID:    "C10",
		Title: "Distribution-aware and correlation-aware placement vs hash placement",
	}
	n := p.scaled(200, 60)
	items := p.scaled(10000, 2000)
	r := 4
	rng := rand.New(rand.NewSource(p.Seed))
	ds := workload.Generate(workload.Options{
		N: items, Attr: "v", Values: workload.NormalValues(100, 15, rng),
		Groups: items / 20,
	}, rng)
	vals := make([]float64, 0, items)
	for _, t := range ds.Tuples {
		vals = append(vals, t.Attrs["v"])
	}
	hist := histogram.BuildEquiDepth(vals, 40)
	size := func() float64 { return float64(n) }

	build := func(kind string, id node.ID) sieve.Sieve {
		cfg := sieve.Config{Replication: r, SizeEstimate: size}
		switch kind {
		case "range":
			return sieve.NewRange(id, cfg)
		case "quantile":
			return sieve.NewQuantile(id, "v", func() *histogram.EquiDepth { return hist }, cfg)
		default:
			return sieve.NewTag(id, cfg)
		}
	}

	table := metrics.NewTable("load balance and collocation by sieve family",
		"sieve", "mean load", "CV(load)", "max/mean",
		"nodes per 20-item value window", "nodes per correlated group")
	for _, kind := range []string{"range", "quantile", "tag"} {
		sieves := make([]sieve.Sieve, n)
		for i := range sieves {
			sieves[i] = build(kind, node.ID(i+1))
		}
		loads := metrics.NewDist(n)
		keepersOf := make(map[string][]int, items)
		for i, sv := range sieves {
			kept := 0
			for _, t := range ds.Tuples {
				if sv.Keep(t) {
					kept++
					keepersOf[t.Key] = append(keepersOf[t.Key], i)
				}
			}
			loads.Observe(float64(kept))
		}
		// Value-window collocation: sort tuples by value; for windows of
		// 20 adjacent tuples count distinct holder nodes (multi-get cost
		// for a small range query).
		byVal := append([]*tuple.Tuple(nil), ds.Tuples...)
		sort.Slice(byVal, func(i, j int) bool { return byVal[i].Attrs["v"] < byVal[j].Attrs["v"] })
		winNodes := metrics.NewDist(64)
		for w := 0; w+20 <= len(byVal); w += len(byVal) / 50 {
			distinct := map[int]bool{}
			for _, t := range byVal[w : w+20] {
				for _, holder := range keepersOf[t.Key] {
					distinct[holder] = true
				}
			}
			winNodes.Observe(float64(len(distinct)))
		}
		// Group collocation: distinct nodes per correlated group.
		groups := map[string]map[int]bool{}
		for _, t := range ds.Tuples {
			g := t.PrimaryTag()
			if groups[g] == nil {
				groups[g] = map[int]bool{}
			}
			for _, holder := range keepersOf[t.Key] {
				groups[g][holder] = true
			}
		}
		grpNodes := metrics.NewDist(len(groups))
		for _, holders := range groups {
			grpNodes.Observe(float64(len(holders)))
		}
		cv := loads.Stddev() / loads.Mean()
		table.AddRow(kind, loads.Mean(), cv, loads.Max()/loads.Mean(),
			winNodes.Mean(), grpNodes.Mean())
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: quantile sieve load balance ≈ range sieve (equal probability mass per node) while touching far fewer nodes per value window",
		"expected shape: tag sieve touches ≈r nodes per correlated group vs ≈min(group size * r, N) for hash placement")
	return res
}
