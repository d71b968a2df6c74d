package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"datadroplets/internal/aggregate"
	"datadroplets/internal/histogram"
	"datadroplets/internal/membership"
	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/sim"
	"datadroplets/internal/sizeest"
	"datadroplets/internal/workload"
)

func init() {
	register("C5", runC5)
	register("C6", runC6)
	register("C9", runC9)
	register("C12", runC12)
}

// runC5 measures extrema-propagation size estimation: error vs K and
// rounds, with and without churn (§III-A, ref [23]).
func runC5(p Params) *Result {
	res := &Result{
		ID:    "C5",
		Title: "Epidemic system-size estimation (extrema propagation)",
	}
	table := metrics.NewTable("N̂ accuracy vs K",
		"N", "K", "analytic stderr", "rounds", "mean |rel err|", "max |rel err|")
	sizes := []int{p.scaled(500, 100), p.scaled(2000, 300)}
	trials := p.scaled(5, 3)
	for _, n := range sizes {
		for _, k := range []int{16, 64, 256, 1024} {
			var sumErr, maxErr float64
			rounds := 0
			for trial := 0; trial < trials; trial++ {
				sp := sizePopulation(n, p.Seed+int64(trial)*13+int64(k), sizeest.Config{K: k, EpochLen: 1 << 20})
				rounds = int(math.Ceil(math.Log2(float64(n)))) + 5
				sp.net.Run(rounds)
				relErr := math.Abs(sp.machines[0].Estimate()-float64(n)) / float64(n)
				sumErr += relErr
				if relErr > maxErr {
					maxErr = relErr
				}
			}
			table.AddRow(n, k, 1/math.Sqrt(float64(k-2)), rounds, sumErr/float64(trials), maxErr)
		}
	}
	res.Tables = append(res.Tables, table)

	churn := metrics.NewTable("N̂ under churn (K=128, epoch 20)",
		"churn preset", "true alive (end)", "estimate (end)", "|rel err|")
	n := p.scaled(1000, 200)
	for _, preset := range []workload.ChurnPreset{workload.ChurnNone, workload.ChurnLow, workload.ChurnModerate, workload.ChurnHigh} {
		sp := sizePopulation(n, p.Seed+int64(len(preset)), sizeest.Config{K: 128, EpochLen: 20})
		sp.churn(workload.ChurnConfig(preset), p.Seed+99, 60)
		alive := float64(sp.net.Size())
		var est float64
		for i, id := range sp.ids {
			if sp.net.Alive(id) {
				est = sp.machines[i].Estimate()
				break
			}
		}
		churn.AddRow(string(preset), alive, est, math.Abs(est-alive)/alive)
	}
	res.Tables = append(res.Tables, churn)
	res.Notes = append(res.Notes,
		"expected shape: error tracks 1/sqrt(K-2); estimates stay within ~2x of truth under high churn thanks to epoch restarts")
	return res
}

func sizePopulation(n int, seed int64, cfg sizeest.Config) *population[*sizeest.Estimator] {
	return newPopulation(sim.Config{Seed: seed}, n, func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *sizeest.Estimator {
		return sizeest.New(id, rng, view(), cfg)
	})
}

// runC6 measures walk-based replica estimation: error vs walk count, and
// the sieve-vs-tuple granularity cost argument (§III-A).
func runC6(p Params) *Result {
	res := &Result{
		ID:    "C6",
		Title: "Random-walk replica estimation at sieve granularity",
	}
	n := p.scaled(1000, 200)
	trueFrac := 0.1 // 10% of nodes cover the probed range
	table := metrics.NewTable("replica estimate vs walk budget",
		"N", "walks", "ttl", "true replicas", "mean estimate", "mean |rel err|", "walk hops total")
	trials := p.scaled(10, 4)
	for _, walks := range []int{8, 32, 128, 512} {
		var sumEst, sumErr, hops float64
		for trial := 0; trial < trials; trial++ {
			wp := newPopulation(sim.Config{Seed: p.Seed + int64(trial)*17 + int64(walks)}, n,
				func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *randomwalk.Walker {
					covers := float64(id%100) < trueFrac*100
					return randomwalk.New(id, rng, view(), func(randomwalk.Query) (bool, bool) { return covers, false })
				})
			w := wp.machines[0]
			setID, envs := w.Launch(randomwalk.Query{Point: 1}, walks, 8)
			wp.net.Emit(wp.ids[0], envs)
			wp.net.Quiesce(40)
			set, _ := w.Results(setID)
			est := set.ReplicaEstimate(float64(n))
			sumEst += est
			sumErr += math.Abs(est-trueFrac*float64(n)) / (trueFrac * float64(n))
			var h int64
			for _, wk := range wp.machines {
				h += wk.Hops
			}
			hops += float64(h)
		}
		ft := float64(trials)
		table.AddRow(n, walks, 8, trueFrac*float64(n), sumEst/ft, sumErr/ft, hops/ft)
	}
	res.Tables = append(res.Tables, table)

	// Cost argument: one sieve-level walk set answers for every tuple in
	// the range at once.
	tuplesPerRange := p.scaled(2000, 400)
	cost := metrics.NewTable("sieve-level vs tuple-level checking cost",
		"tuples in range", "walks per check", "hops per walk", "sieve-level hops", "tuple-level hops", "saving factor")
	walks, ttl := 64, 8
	sieveHops := walks * (ttl + 1)
	tupleHops := tuplesPerRange * walks * (ttl + 1)
	cost.AddRow(tuplesPerRange, walks, ttl+1, sieveHops, tupleHops, float64(tupleHops)/float64(sieveHops))
	res.Tables = append(res.Tables, cost)
	res.Notes = append(res.Notes,
		"expected shape: error shrinks ~1/sqrt(walks); checking per sieve range instead of per tuple saves a factor equal to the range's tuple count")
	return res
}

// runC9 measures gossip distribution estimation: KS distance vs rounds,
// with replication-induced duplicates and churn (§III-B1, refs [26][27]).
func runC9(p Params) *Result {
	res := &Result{
		ID:    "C9",
		Title: "Gossip distribution estimation under duplicates and churn",
	}
	n := p.scaled(200, 60)
	perNode := 40
	r := 3 // every value replicated on r nodes: the duplicate hazard
	rng := rand.New(rand.NewSource(p.Seed))
	// Build the global dataset, then place each item on r nodes.
	total := n * perNode / r
	values := make([]float64, total)
	for i := range values {
		values[i] = rng.NormFloat64()*10 + 50
	}
	owners := make([][]int, n) // node -> item indices (duplicated)
	for i := range values {
		for c := 0; c < r; c++ {
			nd := rng.Intn(n)
			owners[nd] = append(owners[nd], i)
		}
	}
	build := func(seed int64, epochLen int) *population[*histogram.Estimator] {
		return newPopulation(sim.Config{Seed: seed}, n, func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *histogram.Estimator {
			items := owners[id-1]
			return histogram.NewEstimator(id, rng, view(), histogram.EstimatorConfig{
				K: 384, EpochLen: epochLen, Buckets: 24,
				Local: func(emit func(string, float64)) {
					for _, it := range items {
						emit(fmt.Sprintf("item-%d", it), values[it])
					}
				},
			})
		})
	}

	series := metrics.NewTable("KS distance vs rounds (duplicates r=3)",
		"round", "KS node A", "KS node B", "distinct estimate / true")
	hp := build(p.Seed, 1<<20)
	for round := 0; round <= 16; round += 2 {
		if round > 0 {
			hp.net.Run(2)
		}
		ksA, ksB := math.NaN(), math.NaN()
		if h := hp.machines[0].Histogram(); h != nil {
			ksA = h.KSAgainstSamples(values)
		}
		if h := hp.machines[n/2].Histogram(); h != nil {
			ksB = h.KSAgainstSamples(values)
		}
		series.AddRow(round, ksA, ksB, hp.machines[0].DistinctEstimate()/float64(total))
	}
	res.Tables = append(res.Tables, series)

	churnT := metrics.NewTable("KS after 60 rounds under churn (epoch 20)",
		"churn preset", "KS (alive node)", "distinct est / true")
	for _, preset := range []workload.ChurnPreset{workload.ChurnNone, workload.ChurnModerate, workload.ChurnHigh} {
		cp := build(p.Seed+int64(len(preset)), 20)
		cp.churn(workload.ChurnConfig(preset), p.Seed+7, 60)
		for i, id := range cp.ids {
			if cp.net.Alive(id) {
				ks := math.NaN()
				if h := cp.machines[i].Histogram(); h != nil {
					ks = h.KSAgainstSamples(values)
				}
				churnT.AddRow(string(preset), ks, cp.machines[i].DistinctEstimate()/float64(total))
				break
			}
		}
	}
	res.Tables = append(res.Tables, churnT)
	res.Notes = append(res.Notes,
		"expected shape: KS drops to <0.1 within ~log2(N) rounds; duplicates do not bias the estimate (KMV keys dedupe); churn degrades gracefully")
	return res
}

// runC12 measures push-sum aggregation accuracy under churn (§III-C).
func runC12(p Params) *Result {
	res := &Result{
		ID:    "C12",
		Title: "Push-sum aggregation accuracy under churn",
	}
	n := p.scaled(300, 80)
	table := metrics.NewTable("aggregate error vs churn (avg of values 1..N)",
		"churn preset", "true avg (alive)", "estimate", "|rel err|", "min est", "max est")
	for _, preset := range []workload.ChurnPreset{workload.ChurnNone, workload.ChurnLow, workload.ChurnModerate, workload.ChurnHigh} {
		ap := newPopulation(sim.Config{Seed: p.Seed + int64(len(preset))}, n,
			func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *aggregate.Aggregator {
				return aggregate.New(id, rng, view(), aggregate.Config{Attr: "v", EpochLen: 25, Value: func() float64 { return float64(id) }})
			})
		ap.churn(workload.ChurnConfig(preset), p.Seed+3, 75)
		var trueSum, aliveN float64
		for _, id := range ap.ids {
			if ap.net.Alive(id) {
				trueSum += float64(id)
				aliveN++
			}
		}
		trueAvg := trueSum / aliveN
		for i, id := range ap.ids {
			if ap.net.Alive(id) {
				a := ap.machines[i]
				table.AddRow(string(preset), trueAvg, a.Average(),
					math.Abs(a.Average()-trueAvg)/trueAvg, a.Min(), a.Max())
				break
			}
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: exact convergence without churn; bounded error under churn thanks to epoch restarts (mass loss is reset every epoch)")
	return res
}
