package sieve

import (
	"math"

	"datadroplets/internal/node"
)

// CoverageReport quantifies the paper's no-data-loss requirement ("the
// only correctness requirement is that all the possibilities in the key
// space are covered") plus the achieved redundancy spread.
type CoverageReport struct {
	// Fraction is the exact share of the space covered by at least one
	// sieve (union of arcs).
	Fraction float64
	// MinReplicas / MaxReplicas / MeanReplicas describe how many sieves
	// cover each probed point.
	MinReplicas  int
	MaxReplicas  int
	MeanReplicas float64
	// Probes is the number of sample points used for the replica stats.
	Probes int
}

// FullyCovered reports whether no gap exists.
func (r CoverageReport) FullyCovered() bool { return r.Fraction >= 1-1e-12 }

// AnalyzeArcs computes a CoverageReport for a population of arc sieves.
// Union coverage is exact (interval arithmetic); per-point replica counts
// use a deterministic probe grid of the given resolution (default 4096).
func AnalyzeArcs(sieves []ArcSieve, probes int) CoverageReport {
	if probes <= 0 {
		probes = 4096
	}
	all := make([]node.Arc, 0, len(sieves)*4)
	for _, s := range sieves {
		all = append(all, s.Arcs()...)
	}
	rep := CoverageReport{
		Fraction: node.CoverageFraction(all),
		Probes:   probes,
	}
	step := math.Exp2(64) / float64(probes)
	total := 0
	rep.MinReplicas = math.MaxInt
	for i := 0; i < probes; i++ {
		p := node.Point(float64(i) * step)
		count := 0
		for _, a := range all {
			if a.Contains(p) {
				count++
			}
		}
		total += count
		if count < rep.MinReplicas {
			rep.MinReplicas = count
		}
		if count > rep.MaxReplicas {
			rep.MaxReplicas = count
		}
	}
	rep.MeanReplicas = float64(total) / float64(probes)
	return rep
}

// UniformCoverageProbability returns the analytic probability that a
// given key is kept by at least one of n nodes running Uniform sieves
// with replication r: 1 - (1 - r/n)^n ≈ 1 - e^(-r). This is the paper's
// "with an uniform redundancy strategy atomic dissemination is not even
// necessary" argument in closed form, used by experiment C3.
func UniformCoverageProbability(r int, n int) float64 {
	if n <= 0 {
		return 0
	}
	p := float64(r) / float64(n)
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(n))
}

// ExpectedReplicasUnderPartialDissemination returns the expected number of
// stored copies of one tuple when dissemination reaches only a fraction
// `coverage` of n nodes, each keeping with probability r/n. The paper's
// trade-off (§III-A): effort buys coverage, coverage times sieve
// probability buys replicas.
func ExpectedReplicasUnderPartialDissemination(r int, n int, coverage float64) float64 {
	if n <= 0 {
		return 0
	}
	return coverage * float64(n) * (float64(r) / float64(n))
}
