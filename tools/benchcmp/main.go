// Command benchcmp compares a freshly measured ddbench JSON report
// against a committed baseline report and flags regressions. It handles
// two report families, dispatching on the report's "benchmark" field:
//
//   - simscale: rows match by (nodes, workers); rounds_per_sec is
//     compared against the threshold (percent). When both reports carry
//     a repair_cost section, the digest-serve ns/op is compared at the
//     same threshold and the index-vs-full-scan speedup against an
//     absolute 10x floor.
//   - scenarios: rows match by (scenario, nodes, workers);
//     availability_any (absolute drop > 0.02), stale_keeper_copies
//     (absolute rise > 0.02) and rounds_to_convergence (relative rise
//     beyond the threshold) are compared — the dependability envelope
//     rather than throughput.
//
// Rows without a counterpart in the baseline are skipped (the committed
// baselines mix full-scale and CI-scale measurements — only the
// overlapping configurations are comparable). By default a regression
// prints a GitHub Actions warning annotation and the command still
// exits 0, because absolute numbers also move with runner hardware and
// convergence rounds are heavy-tailed; -strict turns regressions into a
// non-zero exit for local gating.
//
// Usage:
//
//	benchcmp -baseline BENCH_simscale.json -current simscale_ci.json -threshold 20
//	benchcmp -baseline BENCH_scenarios.json -current scenarios_ci.json -threshold 50
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// row is the union of the fields the two comparisons need; unknown
// fields are ignored, absent ones stay zero.
type row struct {
	Scenario     string  `json:"scenario"`
	Nodes        int     `json:"nodes"`
	Workers      int     `json:"workers"`
	RoundsPerSec float64 `json:"rounds_per_sec"`

	AvailAny         float64 `json:"availability_any"`
	StaleKeepers     float64 `json:"stale_keeper_copies"`
	RoundsToConverge int     `json:"rounds_to_converge"`
}

// repairCost is the repair_cost section of a simscale (or standalone
// repaircost) report: the million-key digest-serving measurement.
type repairCost struct {
	Keys                     int     `json:"keys"`
	DigestArcNsPerOp         float64 `json:"digest_arc_ns_per_op"`
	DigestArcFullScanNsPerOp float64 `json:"digest_arc_full_scan_ns_per_op"`
	DigestSpeedupX           float64 `json:"digest_speedup_x"`
	EntriesScannedPerServe   float64 `json:"entries_scanned_per_serve"`
}

type report struct {
	Benchmark string `json:"benchmark"`
	// CPUs/GOMAXPROCS identify the measuring host's parallel capacity.
	// Reports written before these fields existed decode them as zero,
	// which the cross-host check treats as "unknown" (no refusal).
	CPUs       int         `json:"cpus"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	RepairCost *repairCost `json:"repair_cost"`
	Results    []row       `json:"results"`
}

// scenarioKey identifies one scenario measurement configuration.
type scenarioKey struct {
	scenario string
	nodes    int
	workers  int
}

func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_simscale.json", "committed baseline report")
		currentPath  = flag.String("current", "simscale_ci.json", "freshly measured report")
		threshold    = flag.Float64("threshold", 20, "regression threshold in percent")
		strict       = flag.Bool("strict", false, "exit non-zero on regression instead of only warning")
	)
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	if baseline.Benchmark != current.Benchmark {
		fmt.Fprintf(os.Stderr, "benchcmp: report kinds differ: %q vs %q\n", baseline.Benchmark, current.Benchmark)
		os.Exit(2)
	}

	// sameHost gates wall-clock comparisons (rounds/sec): a
	// number measured on one core and one measured on four differ for
	// hardware reasons, not code reasons. Zero CPUs means "unknown"
	// (pre-field reports) and does not refuse.
	sameHost := !(baseline.CPUs > 0 && current.CPUs > 0 &&
		(baseline.CPUs != current.CPUs || baseline.GOMAXPROCS != current.GOMAXPROCS))

	var compared, regressions int
	switch current.Benchmark {
	case "scenarios":
		compared, regressions = compareScenarios(baseline, current, *threshold)
	default:
		// Refuse the wall-clock diff entirely for cross-host simscale
		// reports instead of annotating phantom regressions or
		// improvements. Scenario metrics (availability, staleness,
		// convergence rounds) are round-counted, not wall-clocked, so
		// they stay comparable across hosts.
		if !sameHost {
			fmt.Printf("::warning title=cross-host bench::refusing rounds/sec comparison: baseline host cpus=%d gomaxprocs=%d, current host cpus=%d gomaxprocs=%d\n",
				baseline.CPUs, baseline.GOMAXPROCS, current.CPUs, current.GOMAXPROCS)
			fmt.Println("benchcmp: cross-host simscale reports — rounds/sec not compared (re-measure the baseline on this host to compare)")
			return
		}
		compared, regressions = compareSimScale(baseline, current, *threshold)
		rcC, rcR := compareRepairCost(baseline, current, *threshold)
		compared += rcC
		regressions += rcR
	}
	if compared == 0 {
		fmt.Printf("benchcmp: no overlapping rows between %s and %s — nothing compared\n",
			*currentPath, *baselinePath)
		return
	}
	fmt.Printf("benchcmp: %d row(s) compared, %d regression(s) beyond the thresholds\n", compared, regressions)
	if *strict && regressions > 0 {
		os.Exit(1)
	}
}

func compareSimScale(baseline, current *report, threshold float64) (compared, regressions int) {
	base := make(map[[2]int]row, len(baseline.Results))
	for _, r := range baseline.Results {
		base[[2]int{r.Nodes, r.Workers}] = r
	}
	for _, cur := range current.Results {
		ref, ok := base[[2]int{cur.Nodes, cur.Workers}]
		if !ok || ref.RoundsPerSec <= 0 {
			continue
		}
		compared++
		change := (cur.RoundsPerSec/ref.RoundsPerSec - 1) * 100
		status := "ok"
		if change <= -threshold {
			status = "REGRESSION"
			regressions++
			// GitHub Actions annotation — visible on the run summary
			// without failing the job (unless -strict).
			fmt.Printf("::warning title=bench regression::simscale N=%d W=%d: %.2f rounds/sec vs baseline %.2f (%.1f%%)\n",
				cur.Nodes, cur.Workers, cur.RoundsPerSec, ref.RoundsPerSec, change)
		}
		fmt.Printf("N=%-6d W=%-2d %10.2f rounds/sec  baseline %10.2f  %+7.1f%%  %s\n",
			cur.Nodes, cur.Workers, cur.RoundsPerSec, ref.RoundsPerSec, change, status)
	}
	return compared, regressions
}

// compareRepairCost diffs the repair_cost sections when both reports
// carry one (reports predate the section → skipped, like unmatched
// rows). Two checks: the digest-serve ns/op against the baseline at the
// relative threshold — only reached on same-host reports, the caller's
// cross-host refusal already covers wall-clock numbers — and the
// measured index-vs-full-scan speedup against an absolute floor of 10x,
// the bar the incremental index is accountable to regardless of host.
func compareRepairCost(baseline, current *report, threshold float64) (compared, regressions int) {
	ref, cur := baseline.RepairCost, current.RepairCost
	if ref == nil || cur == nil || ref.DigestArcNsPerOp <= 0 {
		return 0, 0
	}
	compared++
	change := (cur.DigestArcNsPerOp/ref.DigestArcNsPerOp - 1) * 100
	status := "ok"
	if change >= threshold {
		status = "REGRESSION"
		regressions++
		fmt.Printf("::warning title=bench regression::repair_cost: DigestArc %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
			cur.DigestArcNsPerOp, ref.DigestArcNsPerOp, change)
	}
	if cur.DigestSpeedupX < 10 {
		status = "REGRESSION"
		regressions++
		fmt.Printf("::warning title=bench regression::repair_cost: digest serve speedup %.1fx over full scan, floor is 10x\n",
			cur.DigestSpeedupX)
	}
	fmt.Printf("repair_cost    keys=%d DigestArc %.0f ns/op  baseline %.0f  %+7.1f%%  speedup %.0fx  scanned/serve %.0f  %s\n",
		cur.Keys, cur.DigestArcNsPerOp, ref.DigestArcNsPerOp, change,
		cur.DigestSpeedupX, cur.EntriesScannedPerServe, status)
	return compared, regressions
}

func compareScenarios(baseline, current *report, threshold float64) (compared, regressions int) {
	base := make(map[scenarioKey]row, len(baseline.Results))
	for _, r := range baseline.Results {
		base[scenarioKey{r.Scenario, r.Nodes, r.Workers}] = r
	}
	for _, cur := range current.Results {
		ref, ok := base[scenarioKey{cur.Scenario, cur.Nodes, cur.Workers}]
		if !ok {
			continue
		}
		compared++
		var bad []string
		if cur.AvailAny < ref.AvailAny-0.02 {
			bad = append(bad, fmt.Sprintf("availability %.3f vs %.3f", cur.AvailAny, ref.AvailAny))
		}
		if cur.StaleKeepers > ref.StaleKeepers+0.02 {
			bad = append(bad, fmt.Sprintf("stale keepers %.3f vs %.3f", cur.StaleKeepers, ref.StaleKeepers))
		}
		// -1 means "did not converge within the cap": a regression when
		// the baseline converged, never an improvement to regress from.
		switch {
		case cur.RoundsToConverge < 0 && ref.RoundsToConverge >= 0:
			bad = append(bad, fmt.Sprintf("no convergence (baseline %d rounds)", ref.RoundsToConverge))
		case cur.RoundsToConverge >= 0 && ref.RoundsToConverge > 0 &&
			float64(cur.RoundsToConverge) > float64(ref.RoundsToConverge)*(1+threshold/100):
			bad = append(bad, fmt.Sprintf("convergence %d vs %d rounds", cur.RoundsToConverge, ref.RoundsToConverge))
		}
		status := "ok"
		if len(bad) > 0 {
			status = "REGRESSION"
			regressions++
			for _, b := range bad {
				fmt.Printf("::warning title=scenario regression::%s N=%d W=%d: %s\n",
					cur.Scenario, cur.Nodes, cur.Workers, b)
			}
		}
		fmt.Printf("%-14s N=%-5d W=%-2d avail %.3f/%.3f  staleKeep %.3f/%.3f  rounds %d/%d  %s\n",
			cur.Scenario, cur.Nodes, cur.Workers,
			cur.AvailAny, ref.AvailAny, cur.StaleKeepers, ref.StaleKeepers,
			cur.RoundsToConverge, ref.RoundsToConverge, status)
	}
	return compared, regressions
}
