package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of sorted (ascending)
// samples: the smallest value with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func quantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// typical picks the reported value out of per-window values under the
// median-window rule: the host slows for seconds at a time, and now and
// then stalls outright, so no single window stands for the run, while
// the median window is untouched by stalls as long as they reach fewer
// than half the windows. NaN marks a window without samples and is
// skipped; with no usable window typical is NaN.
func typical(windows []float64) float64 {
	usable := make([]float64, 0, len(windows))
	for _, v := range windows {
		if !math.IsNaN(v) {
			usable = append(usable, v)
		}
	}
	return median(usable)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), because that is how the acceptance
// driver computes a metric's spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
