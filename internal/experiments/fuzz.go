package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"datadroplets/internal/oracle"
	"datadroplets/internal/workload"
)

// The scenario fuzzer: seed-randomized compositions of the fault
// primitives, each run under the recording client workload at every
// requested worker count, cross-checked for digest equality, and handed
// to the consistency oracle. A failing case reduces to a one-line repro
// — (seed, workers, scenario-spec) — because the whole schedule is a
// pure function of the seed.

// FuzzConfig parameterises a fuzz sweep.
type FuzzConfig struct {
	// Seeds is the number of seeded compositions to run (cases use
	// BaseSeed, BaseSeed+1, ...).
	Seeds int
	// BaseSeed is the first case's seed.
	BaseSeed int64
	// Workers are the fabric worker counts every case is cross-checked
	// over.
	Workers []int
	// Nodes is the cluster size per case.
	Nodes int
}

// fuzzFaultRounds is the fault-window length of every case of a sweep.
const fuzzFaultRounds = 40

// FuzzCaseResult reports one fuzz case: the generated schedule, the
// cross-worker digest, and any violations (oracle findings or
// cross-worker divergence). Repro is the one-line reproduction recipe,
// set only when the case failed.
type FuzzCaseResult struct {
	Seed       int64    `json:"seed"`
	Nodes      int      `json:"nodes"`
	Spec       string   `json:"spec"`
	ReadDist   string   `json:"read_dist"`
	Digest     string   `json:"digest"`
	Ops        int      `json:"ops"`
	Rounds     int      `json:"rounds"`
	Converged  bool     `json:"converged"`
	Violations []string `json:"violations,omitempty"`
	Repro      string   `json:"repro,omitempty"`
}

// injectStaleReads, when set, rewinds every recorded read observation by
// one sequence number — a deliberately broken client that the oracle
// must catch. Test-only: proves the fuzz gate actually fires.
var injectStaleReads bool

// fuzzCaseEvents derives a case's fault schedule and read distribution
// from its seed. Pure: equal seeds always produce equal cases.
func fuzzCaseEvents(seed int64, nodes, faultRounds int) ([]FaultEvent, string) {
	frng := rand.New(rand.NewSource(seed ^ 0x0f0225eed))
	events := GenerateFuzzEvents(frng, nodes, faultRounds)
	dists := workload.ReadDists()
	return events, dists[frng.Intn(len(dists))]
}

// RunFuzzCase executes one seeded composition at every worker count and
// checks it: cross-worker result and history digests must agree, the
// recorded history must satisfy the session guarantees, and the
// end-state replica map must have converged on the latest version.
func RunFuzzCase(seed int64, workers []int, nodes, faultRounds int) (*FuzzCaseResult, error) {
	events, dist := fuzzCaseEvents(seed, nodes, faultRounds)
	cr := &FuzzCaseResult{
		Seed:     seed,
		Nodes:    nodes,
		Spec:     EventsSpec(events),
		ReadDist: dist,
	}
	base := ScenarioConfig{
		Name:          "fuzz",
		Nodes:         nodes,
		Seed:          seed,
		FaultRounds:   faultRounds,
		ReadsPerRound: 6,
		ReadDist:      dist,
		RecordHistory: true,
		Events:        events,
	}
	var first *ScenarioResult
	for _, w := range workers {
		cfg := base
		cfg.Workers = w
		res, err := RunScenario(cfg)
		if err != nil {
			return nil, fmt.Errorf("fuzz seed %d W=%d: %w", seed, w, err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Digest() != first.Digest() {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"determinism: digest %016x at W=%d vs %016x at W=%d",
				res.Digest(), w, first.Digest(), workers[0]))
		}
		if res.HistoryDigest != first.HistoryDigest {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"determinism: history digest %016x at W=%d vs %016x at W=%d",
				res.HistoryDigest, w, first.HistoryDigest, workers[0]))
		}
	}
	cr.Digest = first.DigestHex
	cr.Ops = first.History.Len()
	cr.Rounds = first.Rounds
	cr.Converged = first.FullConverged
	for _, v := range oracle.Check(first.History) {
		cr.Violations = append(cr.Violations, v.String())
	}
	for _, v := range oracle.CheckConvergence(first.Replicas, first.Rounds) {
		cr.Violations = append(cr.Violations, v.String())
	}
	if len(cr.Violations) > 0 {
		cr.Repro = FuzzRepro(seed, workers, cr.Spec)
	}
	return cr, nil
}

// FuzzRepro renders the one-line reproduction recipe of a failing case.
func FuzzRepro(seed int64, workers []int, spec string) string {
	ws := make([]string, len(workers))
	for i, w := range workers {
		ws[i] = fmt.Sprintf("%d", w)
	}
	return fmt.Sprintf("(seed=%d, workers=%s, scenario-spec=%s)", seed, strings.Join(ws, ","), spec)
}

// RunFuzz sweeps Seeds seeded compositions and returns one case per
// seed. logf (optional) receives a progress line per case.
func RunFuzz(cfg FuzzConfig, logf func(format string, args ...any)) ([]FuzzCaseResult, error) {
	var cases []FuzzCaseResult
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + int64(i)
		cr, err := RunFuzzCase(seed, cfg.Workers, cfg.Nodes, fuzzFaultRounds)
		if err != nil {
			return nil, err
		}
		cases = append(cases, *cr)
		if logf != nil {
			status := "ok"
			if len(cr.Violations) > 0 {
				status = fmt.Sprintf("%d VIOLATIONS", len(cr.Violations))
			}
			logf("fuzz seed=%-6d dist=%-7s ops=%-5d rounds=%-4d digest=%s %s  %s",
				seed, cr.ReadDist, cr.Ops, cr.Rounds, cr.Digest, status, cr.Spec)
		}
	}
	return cases, nil
}
