package main

import (
	"fmt"

	"datadroplets/internal/experiments"
)

// runFuzz drives the consistency fuzzer: seeded random fault
// compositions under the recording client workload, each cross-checked
// across the worker counts and handed to the session-guarantee and
// convergence oracles. Any violation prints its one-line repro —
// (seed, workers, scenario-spec) — and the run exits nonzero. With
// -verify only the seeds the committed report has a row for run, and
// each case must reproduce its row.
func runFuzz(seed int64, seeds int, scale float64, jsonPath, verifyPath string, workerCounts []int) error {
	nodes := max(int(240*scale), 48)
	out, err := newSink("fuzz", seed, jsonPath, verifyPath, "seed", "nodes")
	if err != nil {
		return err
	}
	fmt.Printf("fuzz: %d seeded compositions, base seed %d, N=%d, workers %v\n",
		seeds, seed, nodes, workerCounts)
	var cases []experiments.FuzzCaseResult
	for s := seed; s < seed+int64(seeds); s++ {
		if skip, err := out.skips(experiments.FuzzCaseResult{Seed: s, Nodes: nodes}); err != nil {
			return err
		} else if skip {
			continue
		}
		c, err := experiments.RunFuzz(experiments.FuzzConfig{
			Seeds:    1,
			BaseSeed: s,
			Workers:  workerCounts,
			Nodes:    nodes,
		}, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
		if err != nil {
			return err
		}
		cases = append(cases, c...)
	}
	rows := make([]row, len(cases))
	violations := 0
	for i, c := range cases {
		if rows[i], err = out.row(c); err != nil {
			return err
		}
		for _, v := range c.Violations {
			fmt.Printf("VIOLATION seed=%d: %s\n", c.Seed, v)
			violations++
		}
		if c.Repro != "" {
			fmt.Printf("repro: %s\n", c.Repro)
		}
	}
	if err := out.add(rows); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("%d consistency violations across %d seeds", violations, len(cases))
	}
	fmt.Printf("fuzz: %d seeds clean (0 violations)\n", len(cases))
	return out.done()
}
