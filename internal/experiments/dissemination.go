package experiments

import (
	"fmt"
	"math"

	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/sieve"
	"datadroplets/internal/tuple"
)

func init() {
	register("C1", runC1)
	register("C2", runC2)
	register("C3", runC3)
}

// runC1 measures P(atomic infection) as a function of c for several
// system sizes and compares against the analytic e^(-e^(-c)) (§III-A).
func runC1(p Params) *Result {
	res := &Result{
		ID:    "C1",
		Title: "Atomic infection probability vs c (fanout = ln N + c)",
	}
	table := metrics.NewTable("P(atomic) measured vs analytic",
		"N", "c", "fanout", "trials", "P(atomic) measured", "P(atomic) analytic", "mean coverage")
	sizes := []int{p.scaled(1000, 200), p.scaled(5000, 400), p.scaled(20000, 800)}
	trials := p.scaled(40, 10)
	for _, n := range sizes {
		for _, c := range []float64{-1, 0, 1, 2, 3, 5, 7} {
			fanout := math.Log(float64(n)) + c
			atomic := 0
			var coverage float64
			for trial := 0; trial < trials; trial++ {
				infected, _ := disseminate(gossipPopulation(n, p.Seed+int64(trial)*7919+int64(n), fanout), 80)
				if infected == n {
					atomic++
				}
				coverage += float64(infected) / float64(n)
			}
			table.AddRow(n, c, fanout, trials,
				float64(atomic)/float64(trials),
				math.Exp(-math.Exp(-c)),
				coverage/float64(trials))
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"analytic column is the Erdős–Rényi connectivity limit the paper's fanout rule targets",
		"expected shape: measured tracks analytic, rising from ~0 at c=-1 to ~1 at c=7 independent of N")
	return res
}

// runC2 reproduces the paper's worked example: N = 50 000, c = 7 →
// fanout ≈ 18 copies relayed per node and atomic infection w.p. 0.999.
func runC2(p Params) *Result {
	res := &Result{
		ID:    "C2",
		Title: "Worked example: N=50000, c=7 → ~18 relays/node, P(atomic)=0.999",
	}
	n := p.scaled(50000, 1000)
	c := 7.0
	fanout := math.Log(float64(n)) + c
	trials := p.scaled(10, 3)
	table := metrics.NewTable("worked example",
		"N", "c", "fanout ln(N)+c", "trial", "infected", "atomic", "relays/node", "rounds")
	for trial := 0; trial < trials; trial++ {
		gc := gossipPopulation(n, p.Seed+int64(trial)*104729, fanout)
		start := gc.net.Round()
		infected, relayed := disseminate(gc, 100)
		table.AddRow(n, c, fanout, trial, infected, infected == n,
			float64(relayed)/float64(n), int(gc.net.Round()-start))
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: ln(50000)+7 ≈ 18 copies per node; at this scale ln(%d)+7 = %.2f", n, fanout),
		"expected shape: atomic in ≈999/1000 runs, relays/node ≈ fanout, rounds O(log N)")
	return res
}

// runC3 maps the replication × dissemination-effort trade-off: relaxed
// (sub-atomic) dissemination combined with uniform sieves still yields
// the target redundancy at a fraction of the cost (§III-A).
func runC3(p Params) *Result {
	res := &Result{
		ID:    "C3",
		Title: "Dissemination effort vs coverage vs achieved redundancy",
	}
	n := p.scaled(5000, 500)
	trials := p.scaled(20, 5)
	rs := []int{3, 5, 10}
	table := metrics.NewTable("effort/coverage/redundancy trade-off",
		"fanout", "coverage", "msgs/node",
		"replicas r=3", "replicas r=5", "replicas r=10",
		"P(0 copies) r=3 analytic")
	lnN := math.Log(float64(n))
	for _, fanout := range []float64{0.5, 1, 1.5, 2, 3, 5, lnN - 2, lnN, lnN + 2, lnN + 7} {
		var coverage, msgs float64
		replicaMeans := make([]float64, len(rs))
		for trial := 0; trial < trials; trial++ {
			gc := gossipPopulation(n, p.Seed+int64(trial)*31+int64(fanout*1000), fanout)
			infected, relayed := disseminate(gc, 120)
			cov := float64(infected) / float64(n)
			coverage += cov
			msgs += float64(relayed) / float64(n)
			// Uniform sieves: each infected node keeps w.p. r/n. Count
			// keepers among infected nodes for a probe tuple.
			probe := &tuple.Tuple{Key: fmt.Sprintf("probe-%d", trial), Version: tuple.Version{Seq: 1, Writer: 1}}
			for ri, r := range rs {
				keepers := 0
				for i, d := range gc.machines {
					if d.Delivered == 0 {
						continue // not infected
					}
					sv := sieve.NewUniform(gc.ids[i], sieve.Config{
						Replication:  r,
						SizeEstimate: func() float64 { return float64(n) },
					})
					if sv.Keep(probe) {
						keepers++
					}
				}
				replicaMeans[ri] += float64(keepers)
			}
		}
		ft := float64(trials)
		cov := coverage / ft
		// P(no copy) with coverage cov: (1 - r/n)^(cov*n) ≈ e^(-r*cov).
		pZero := math.Exp(-3 * cov)
		table.AddRow(fanout, cov, msgs/ft,
			replicaMeans[0]/ft, replicaMeans[1]/ft, replicaMeans[2]/ft, pZero)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: coverage saturates near 1 well below fanout ln(N)+7; achieved replicas ≈ coverage*r",
		"the paper's argument: with uniform redundancy, reaching ~all-but-epsilon of the population already yields r copies — atomic dissemination pays ~2-3x the messages for negligible redundancy gain")
	return res
}

// rangeSieves builds the range sieves of nodes 1..n.
func rangeSieves(n int, r int, capacity func(i int) float64) []sieve.ArcSieve {
	out := make([]sieve.ArcSieve, 0, n)
	for i := 0; i < n; i++ {
		cf := 1.0
		if capacity != nil {
			cf = capacity(i)
		}
		out = append(out, sieve.NewRange(node.ID(i+1), sieve.Config{
			Replication:    r,
			SizeEstimate:   func() float64 { return float64(n) },
			CapacityFactor: cf,
		}))
	}
	return out
}
