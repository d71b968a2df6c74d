package main

import (
	"fmt"

	"datadroplets/internal/experiments"
)

// runSimScale sweeps the fabric benchmark — a sustained write + churn +
// repair workload, 200 measured rounds — over the populations
// {2 000, 10 000} × scale and the worker counts. Scale 1 is the
// 2k..10k regime the paper states its claims for and the committed rows
// of BENCH_simscale.json; scale 5 and 10 reach N=50 000 and N=100 000.
// Each population's rows are merged into the -json report and compared
// against the -verify report as soon as its worker sweep ends.
func runSimScale(seed int64, scale float64, jsonPath, verifyPath string, workerCounts []int) error {
	out, err := newSink("simscale", seed, jsonPath, verifyPath, "nodes", "rounds", "workers")
	if err != nil {
		return err
	}
	const rounds = 200
	fmt.Printf("simscale: write+churn+repair fabric benchmark, seed %d, scale %.2f, workers %v\n",
		seed, scale, workerCounts)
	fmt.Printf("%8s %8s %8s %10s %12s %14s %14s %12s\n",
		"nodes", "rounds", "workers", "seconds", "rounds/sec", "allocs/round", "bytes/round", "delivered")
	for _, n := range []float64{2000, 10000} {
		nodes := max(int(n*scale), 64)
		err := out.sweep(workerCounts,
			func(w int) any { return experiments.SimScaleResult{Nodes: nodes, Rounds: rounds, Workers: w} },
			func(w int) (any, error) {
				res := experiments.RunSimScale(experiments.SimScaleConfig{
					Nodes:             nodes,
					Rounds:            rounds,
					Warmup:            30,
					Seed:              seed,
					WritesPerRound:    16,
					TransientPerRound: 0.002,
					PermanentPerRound: 0.0002,
					MeanDowntime:      10,
					AggregateAttr:     "v",
					Workers:           w,
				})
				fmt.Printf("%8d %8d %8d %10.2f %12.1f %14.0f %14.0f %12d\n",
					res.Nodes, res.Rounds, res.Workers, res.ElapsedSeconds, res.RoundsPerSec,
					res.AllocsPerRound, res.BytesPerRound, res.Delivered)
				return res, nil
			})
		if err != nil {
			return err
		}
	}
	return out.done()
}
