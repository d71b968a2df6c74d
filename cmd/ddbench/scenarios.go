package main

import (
	"fmt"
	"strings"

	"datadroplets/internal/experiments"
)

// runScenarios sweeps the fault-scenario suite (one scenario or all)
// over the requested worker counts, merges each scenario's rows into the
// -json report, compares them against the -verify report, and fails on
// any row that did not fully converge within maxRecovery rounds (0 = the
// scenario default).
func runScenarios(seed int64, scale float64, scenario, jsonPath, verifyPath string, workerCounts []int, maxRecovery int) error {
	var names []string
	if scenario == "" || scenario == "all" {
		names = experiments.ScenarioNames()
	} else {
		for _, s := range strings.Split(scenario, ",") {
			names = append(names, strings.TrimSpace(s))
		}
	}
	nodes := max(int(240*scale), 48)
	out, err := newSink("scenarios", seed, jsonPath, verifyPath, "scenario", "nodes", "workers")
	if err != nil {
		return err
	}

	fmt.Printf("scenarios: fault suite, seed %d, scale %.2f (N=%d), workers %v\n",
		seed, scale, nodes, workerCounts)
	fmt.Printf("%14s %8s %8s %7s %7s %7s %9s %10s %6s %9s %10s %10s\n",
		"scenario", "nodes", "workers", "avail", "fresh", "stale", "stale@end", "kconverge", "full", "replicas", "bystanders", "lostFault")
	var unconverged []string
	for _, name := range names {
		err := out.sweep(workerCounts,
			func(w int) any { return experiments.ScenarioResult{Scenario: name, Nodes: nodes, Workers: w} },
			func(w int) (any, error) {
				res, err := experiments.RunScenario(experiments.ScenarioConfig{
					Name:        name,
					Nodes:       nodes,
					Seed:        seed,
					Workers:     w,
					MaxRecovery: maxRecovery,
				})
				if err != nil {
					return nil, err
				}
				fmt.Printf("%14s %8d %8d %7.3f %7.3f %7.3f %9.3f %10d %6d %9.2f %10.2f %10d\n",
					res.Scenario, res.Nodes, res.Workers, res.AvailAny, res.AvailFresh,
					res.StaleCopies, res.StalenessAtFaultEnd, res.RoundsToConverge,
					res.RoundsToFullConverge, res.MeanReplicasEnd, res.BystanderCopiesEnd, res.LostFault)
				if !res.FullConverged {
					unconverged = append(unconverged, fmt.Sprintf("%s W=%d", name, w))
				}
				return res, nil
			})
		if err != nil {
			return err
		}
	}
	if len(unconverged) > 0 {
		return fmt.Errorf("not fully converged within the recovery budget: %s", strings.Join(unconverged, ", "))
	}
	return out.done()
}
