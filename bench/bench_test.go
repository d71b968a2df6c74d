package main

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPacerIssuesExactlyRateTimesDuration(t *testing.T) {
	for _, rate := range []int{1, 7, 999, 2500, 15000, 30001} {
		for _, secs := range []int{1, 3} {
			p := newPacer(rate, time.Duration(secs)*time.Second)
			if p.slots != int64(secs*1000) {
				t.Fatalf("rate %d, %ds: %d slots, want %d", rate, secs, p.slots, secs*1000)
			}
			var total int64
			for i := int64(0); i < p.slots; i++ {
				n := p.opsIn(i)
				total += int64(n)
				if lo, hi := rate/1000, (rate+999)/1000; n < lo || n > hi {
					t.Fatalf("rate %d: slot %d issues %d ops, want %d..%d", rate, i, n, lo, hi)
				}
				if got, want := p.due(i), time.Duration(i)*time.Millisecond; got != want {
					t.Fatalf("slot %d due at %v, want %v", i, got, want)
				}
				// Never ahead of the ideal schedule, never a whole op behind.
				if ideal := float64(i+1) * float64(rate) / 1000; float64(total) > ideal || float64(total) <= ideal-1 {
					t.Fatalf("rate %d: %d ops through slot %d, ideal %.3f", rate, total, i, ideal)
				}
			}
			if want := int64(rate * secs); total != want {
				t.Fatalf("rate %d, %ds: issued %d, want %d", rate, secs, total, want)
			}
		}
	}
	for _, tc := range []struct{ rate, conns int }{{30000, 2}, {5000, 3}, {7, 4}} {
		sum := 0
		for c := 0; c < tc.conns; c++ {
			sum += connRate(tc.rate, tc.conns, c)
		}
		if sum != tc.rate {
			t.Fatalf("connRate(%d over %d) sums to %d", tc.rate, tc.conns, sum)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		v    []int64
		p    float64
		want int64
	}{
		{[]int64{10, 20, 30, 40}, 0.50, 20},
		{[]int64{10, 20, 30, 40}, 0.25, 10},
		{[]int64{10, 20, 30, 40}, 0.51, 30},
		{[]int64{10, 20, 30, 40}, 0.99, 40},
		{[]int64{10, 20, 30, 40}, 0, 10},
		{[]int64{7}, 0.99, 7},
		{hundred, 0.50, 50},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.v, tc.p); got != tc.want {
			t.Errorf("quantile(%v, %v) = %d, want %d", tc.v, tc.p, got, tc.want)
		}
	}
}

func TestMedianWindow(t *testing.T) {
	nan := math.NaN()
	if got := typical([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median window of 3,1,2 = %v", got)
	}
	// A stall in fewer than half the windows does not move the result.
	if got := typical([]float64{0.5, 86, 0.52, 27, 0.51}); got != 0.52 {
		t.Errorf("two stalled windows of five moved the result to %v", got)
	}
	if got := typical([]float64{nan, 5, nan, 4}); got != 4.5 {
		t.Errorf("NaN windows must be skipped, got %v", got)
	}
	if got := typical([]float64{nan}); !math.IsNaN(got) {
		t.Errorf("no usable window must give NaN, got %v", got)
	}
	// A window the generator voided does not count, however good it looks.
	p := &phaseResult{valid: []bool{false, true, true, true}}
	if got := p.typical([]float64{0.1, 7, 9, 8}); got != 8 {
		t.Errorf("typical ignored validity: %v", got)
	}
}

func TestPlanAndJoin(t *testing.T) {
	pl := makePlan(40, false)
	if pl.cycles != 10 || pl.open != openWindow || pl.closed != closedWindow || pl.settle != settle {
		t.Errorf("40 s plan: %+v", pl)
	}
	if pl := makePlan(40, true); pl.cycles != 1 || pl.visProbes == 0 {
		t.Errorf("traced plan: %+v", pl)
	}
	// A run shorter than a cycle gets one cycle scaled to fit.
	pl = makePlan(1, false)
	if pl.cycles != 1 || pl.open+pl.closed+pl.settle != time.Second || pl.open != 500*time.Millisecond {
		t.Errorf("1 s plan: %+v", pl)
	}
	mk := func(p50 float64, lat []int64, attempted, late int64) *phaseResult {
		r := &phaseResult{windowLen: time.Second, valid: []bool{true}, opsPerSec: []float64{1}, cpuPerOp: []float64{1}}
		r.p50[opGet] = []float64{p50}
		r.pooled[opGet] = lat
		r.attempted, r.late = attempted, late
		return r
	}
	j := joinPhases([]*phaseResult{mk(1, []int64{1e6, 3e6}, 2, 1), mk(2, []int64{2e6, 9e6}, 2, 0)})
	if len(j.valid) != 2 || j.p50[opGet][1] != 2 || j.samples[opGet] != 4 || j.p99All[opGet] != 9 || j.lateShare != 0.25 || j.offered != 2 {
		t.Errorf("joined phase: %+v", j)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these expectations were computed with it.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 12, 11, 13, 9}, 9.5, 11, 12.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpStreamsAreDeterministic(t *testing.T) {
	ks := newKeyset(7, 1000)
	mixes := []struct {
		m    mix
		zipf float64
	}{
		{mix{get: 0.95, put: 0.05}, 0},
		{mix{put: 0.90, del: 0.10}, 0},
		{mix{get: 0.08, miss: 0.02, put: 0.80, del: 0.10}, 0},
		{mix{get: 0.60, miss: 0.10, put: 0.30}, 1.1},
	}
	for _, tc := range mixes {
		a := newOpStream(7, 1, 2, ks, tc.m, tc.zipf)
		b := newOpStream(7, 1, 2, ks, tc.m, tc.zipf)
		other := newOpStream(8, 1, 2, ks, tc.m, tc.zipf)
		same, counts := true, [nKinds]int{}
		deleted := map[int]bool{}
		for i := 0; i < 20000; i++ {
			ka, ia := a.next()
			kb, ib := b.next()
			ko, io := other.next()
			if ka != kb || ia != ib {
				t.Fatalf("mix %+v: equal seeds diverged at op %d: %v %d vs %v %d", tc.m, i, ka, ia, kb, ib)
			}
			same = same && ka == ko && ia == io
			counts[ka]++
			switch ka {
			case opGet, opDel:
				if deleted[ia] {
					t.Fatalf("mix %+v: op %d is a %v of deleted key %d", tc.m, i, ka, ia)
				}
				if ka == opDel {
					deleted[ia] = true
				}
			case opPut:
				delete(deleted, ia)
			}
			if tc.m.del > 0 && ka != opMiss && ia%2 != 1 {
				t.Fatalf("mix %+v: connection 1 of 2 touched key %d outside its partition", tc.m, ia)
			}
		}
		if same {
			t.Errorf("mix %+v: seeds 7 and 8 gave the same stream", tc.m)
		}
		for k, share := range []float64{tc.m.get, tc.m.miss, tc.m.put, tc.m.del} {
			if got := float64(counts[k]) / 20000; math.Abs(got-share) > 0.02 {
				t.Errorf("mix %+v: kind %v has share %.3f, want %.3f", tc.m, opKind(k), got, share)
			}
		}
		if len(deleted) > 2 {
			t.Errorf("mix %+v: %d keys left deleted; deleted keys must be re-Put promptly", tc.m, len(deleted))
		}
	}
	// Zipf ranks map to key indices one to one.
	z := newOpStream(7, 0, 1, ks, mixes[3].m, 1.1)
	seen := map[int]bool{}
	for r := 0; r < len(ks.names); r++ {
		seen[r*z.rankMul%len(ks.names)] = true
	}
	if len(seen) != len(ks.names) {
		t.Errorf("rank map hits %d of %d keys", len(seen), len(ks.names))
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	h := keyHash("some/key")
	for _, n := range []int{valueHeader, valueHeader + 1, 31, 128, 1024} {
		v := make([]byte, n)
		fillValue(v, h, 3, 99)
		w, seq, ok := checkValue(v, h)
		if !ok || w != 3 || seq != 99 {
			t.Fatalf("len %d: checkValue = %d %d %v", n, w, seq, ok)
		}
		if _, _, ok := checkValue(v, keyHash("other/key")); ok {
			t.Errorf("len %d: verified against another key", n)
		}
		if n > valueHeader {
			v[n-1] ^= 1
			if _, _, ok := checkValue(v, h); ok {
				t.Errorf("len %d: a flipped filler bit verified", n)
			}
			v[n-1] ^= 1
			if _, _, ok := checkValue(v[:n-1], h); ok {
				t.Errorf("len %d: a truncated value verified", n)
			}
		}
		v[13] ^= 1 // the sequence number is part of what the filler encodes
		if _, _, ok := checkValue(v, h); ok && n > valueHeader {
			t.Errorf("len %d: a forged sequence number verified", n)
		}
	}
	if _, _, ok := checkValue(make([]byte, valueHeader-1), h); ok {
		t.Error("a value shorter than its header verified")
	}
}

// smokeSizes keep the layer probes of the smoke test to a second or two.
var smokeSizes = probeSizes{div: 100, simNodes: 64, simRounds: 10, simWarmup: 10, scenarioNodes: 48}

// TestSmokeEmitsTheManifest runs one second of a small 3-node serve
// workload and of a small simulator workload through the whole pipeline,
// untraced and traced, and holds what they emit against BENCHMARK.json:
// the same workload names, exactly the end-to-end metrics on an untraced
// run, exactly the per-layer metrics on a traced one, the same units.
func TestSmokeEmitsTheManifest(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	var have []string
	for _, w := range workloads {
		if !w.extra {
			have = append(have, w.name)
		}
	}
	if !equalSets(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", man.RunSeconds, defaultSeconds)
	}
	e2e := map[string]string{}
	for _, m := range man.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if !equalSets(keys(e2e), endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, program has %v", keys(e2e), endToEnd)
	}
	layer := map[string]string{}
	for _, m := range man.PerLayer {
		layer[m.Name] = m.Unit
	}
	if testing.Short() {
		t.Skip("the smoke runs boot clusters; skipped with -short")
	}

	serve, _ := findWorkload("serve-write")
	serve.keys, serve.rate, serve.setups = 2000, 2000, 1
	serve.mix = mix{get: 0.08, miss: 0.02, put: 0.80, del: 0.10} // every op kind
	sim, _ := findWorkload("sim-epidemic")
	sim.keys, sim.setups = 600, 1
	for _, w := range []workload{serve, sim} {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 11, 1, traced, t.TempDir(), smokeSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || len(res.violations) != 0 {
				t.Fatalf("%s traced=%v: %d failed ops, violations %v", w.name, traced, res.failed, res.violations)
			}
			got, want := res.e2e, e2e
			if traced {
				got, want = res.layer, layer
			}
			if !equalSets(keys(want), metricNames(got)) {
				t.Fatalf("%s traced=%v emits\n%v\nBENCHMARK.json lists\n%v", w.name, traced, metricNames(got), keys(want))
			}
			for name, m := range got {
				if m.Unit != want[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, want[name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s has no value", w.name, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", w.name, name, m.Value)
				}
			}
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
