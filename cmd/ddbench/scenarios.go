package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"datadroplets/internal/experiments"
)

// scenarioRow is one (scenario, worker count) measurement of the fault
// suite: the experiments result's own JSON shape plus the hex digest.
// The digest is invariant across worker counts for a given scenario,
// scale and seed — the scenario engine runs entirely in the fabric's
// serial commit phase — so equal digests within a sweep double as an
// in-report determinism check, exactly like the simscale report.
type scenarioRow struct {
	experiments.ScenarioResult
	Digest string `json:"digest"`
}

type scenarioReport struct {
	Benchmark string        `json:"benchmark"`
	Seed      int64         `json:"seed"`
	Scale     float64       `json:"scale"`
	Host      string        `json:"host,omitempty"`
	Results   []scenarioRow `json:"results"`
}

func toScenarioRow(r *experiments.ScenarioResult) scenarioRow {
	return scenarioRow{
		ScenarioResult: *r,
		Digest:         fmt.Sprintf("%016x", r.Digest()),
	}
}

// runScenarios sweeps the fault-scenario suite (one scenario or all)
// over the requested worker counts, optionally writes the JSON report,
// and fails on any cross-worker digest divergence or any row that did
// not fully converge within maxRecovery rounds (0 = the scenario
// default). readDist selects the read workload's key distribution
// ("" = uniform).
func runScenarios(seed int64, scale float64, scenario, readDist, jsonPath string, workerCounts []int, maxRecovery int) error {
	var names []string
	if scenario == "" || scenario == "all" {
		names = experiments.ScenarioNames()
	} else {
		for _, s := range strings.Split(scenario, ",") {
			names = append(names, strings.TrimSpace(s))
		}
	}
	nodes := int(240 * scale)
	if nodes < 48 {
		nodes = 48
	}
	report := scenarioReport{
		Benchmark: "scenarios",
		Seed:      seed,
		Scale:     scale,
		Host:      fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}

	fmt.Printf("scenarios: fault suite, seed %d, scale %.2f (N=%d), workers %v\n",
		seed, scale, nodes, workerCounts)
	fmt.Printf("%14s %8s %8s %7s %7s %7s %9s %10s %6s %9s %10s %10s\n",
		"scenario", "nodes", "workers", "avail", "fresh", "stale", "stale@end", "kconverge", "full", "replicas", "bystanders", "lostFault")
	var unconverged []string
	for _, name := range names {
		baseDigest := ""
		for _, w := range workerCounts {
			res, err := experiments.RunScenario(experiments.ScenarioConfig{
				Name:        name,
				Nodes:       nodes,
				Seed:        seed,
				Workers:     w,
				ReadDist:    readDist,
				MaxRecovery: maxRecovery,
			})
			if err != nil {
				return err
			}
			row := toScenarioRow(res)
			report.Results = append(report.Results, row)
			fmt.Printf("%14s %8d %8d %7.3f %7.3f %7.3f %9.3f %10d %6d %9.2f %10.2f %10d\n",
				row.Scenario, row.Nodes, row.Workers, row.AvailAny, row.AvailFresh,
				row.StaleCopies, row.StalenessAtFaultEnd, row.RoundsToConverge,
				row.RoundsToFullConverge, row.MeanReplicasEnd, row.BystanderCopiesEnd, row.LostFault)
			if !row.FullConverged {
				unconverged = append(unconverged, fmt.Sprintf("%s W=%d", name, w))
			}
			switch {
			case baseDigest == "":
				baseDigest = row.Digest
			case row.Digest != baseDigest:
				return fmt.Errorf("determinism violation in %s: W=%d digest %s != W=%d digest %s",
					name, w, row.Digest, workerCounts[0], baseDigest)
			default:
				fmt.Printf("%14s digest identical to W=%d run\n", "", workerCounts[0])
			}
		}
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if len(unconverged) > 0 {
		return fmt.Errorf("not fully converged within the recovery budget: %s", strings.Join(unconverged, ", "))
	}
	return nil
}
