// Command ddbench regenerates the paper-reproduction experiments (F1,
// C1..C14 — see docs/DESIGN.md §2). Each experiment prints fixed-width tables
// with the rows/series the corresponding claim predicts, and optionally
// writes CSV files.
//
// Usage:
//
//	ddbench -run all -scale 0.2            # quick pass over everything
//	ddbench -run C8 -scale 1 -seed 7       # full-scale churn comparison
//	ddbench -run C1,C2,C3 -csv out/        # dissemination suite + CSVs
//	ddbench -run scenarios -scenario split-brain -workers 1,4
//	ddbench -run fuzz -seeds 20 -workers 1,2,4,8           # consistency fuzzer
//	ddbench -run scenarios -scale 0.1 -workers 1,4 -verify BENCH_scenarios.json
//	ddbench -run fuzz -seeds 8 -workers 1,2,4 -scale 0.2 -verify BENCH_fuzz.json
//	ddbench -list
//
// Besides the experiment IDs, -run simscale benchmarks the fabric at
// paper scale, -run scenarios drives the fault-scenario suite (partition,
// flap storm, mass crash, slow nodes, latency spike) measuring
// availability, staleness and rounds-to-convergence per scenario (exits
// nonzero when a scenario does not fully converge within its recovery
// budget), and -run fuzz sweeps seeded random fault compositions under a
// recording client workload, checks the session guarantees and
// convergence with the consistency oracle, and exits nonzero with a
// one-line repro per violation. The live TCP server is load-tested by
// the repository benchmark instead: go run ./bench.
//
// -json FILE merges the three harnesses' rows into FILE by row key;
// -verify FILE makes simscale, scenarios and fuzz run the cells FILE has
// a row for and exit nonzero if a field that is exact per seed differs
// from the committed row, or if no row was compared (report.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"datadroplets/internal/experiments"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back through main so the profile
// defers installed below always run (os.Exit would skip them).
func realMain() int {
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs, 'all', 'simscale', 'scenarios' or 'fuzz'")
		scale    = flag.Float64("scale", 0.25, "population/trial scale (1.0 = paper scale)")
		seed     = flag.Int64("seed", 42, "random seed")
		csv      = flag.String("csv", "", "directory to write per-table CSV files (optional)")
		jsonOut  = flag.String("json", "", "report file to merge the run's rows into (with -run simscale, scenarios or fuzz)")
		verify   = flag.String("verify", "", "committed report whose rows the run must reproduce (with -run simscale, scenarios or fuzz)")
		workers  = flag.String("workers", "1", "comma-separated fabric worker counts to sweep (with -run simscale, scenarios or fuzz)")
		scenario = flag.String("scenario", "all", "scenario name(s) for -run scenarios (comma-separated, or 'all')")
		seeds    = flag.Int("seeds", 20, "number of seeded compositions for -run fuzz (seeds are -seed, -seed+1, ...)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ddbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ddbench: -memprofile: %v\n", err)
			}
			_ = f.Close()
		}()
	}

	if *list {
		for _, id := range append(experiments.IDs(), "simscale", "scenarios", "fuzz") {
			fmt.Println(id)
		}
		for _, name := range experiments.ScenarioNames() {
			fmt.Printf("scenarios -scenario %s\n", name)
		}
		return 0
	}

	ws, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: -workers: %v\n", err)
		return 2
	}
	if *verify != "" && *run != "simscale" && *run != "scenarios" && *run != "fuzz" {
		fmt.Fprintln(os.Stderr, "ddbench: -verify needs -run simscale, scenarios or fuzz")
		return 2
	}
	switch *run {
	case "simscale":
		err = runSimScale(*seed, *scale, *jsonOut, *verify, ws)
	case "scenarios":
		err = runScenarios(*seed, *scale, *scenario, *jsonOut, *verify, ws, 0)
	case "fuzz":
		err = runFuzz(*seed, *seeds, *scale, *jsonOut, *verify, ws)
	default:
		return runExperiments(*run, *csv, experiments.Params{Scale: *scale, Seed: *seed})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		return 1
	}
	return 0
}

// runExperiments prints the tables of the selected experiment IDs and
// writes them as CSV files into csvDir when it is set.
func runExperiments(run, csvDir string, params experiments.Params) int {
	var ids []string
	if run == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			return 1
		}
	}

	exit := 0
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			exit = 1
			continue
		}
		fmt.Printf("%s(%.1fs)\n", res.String(), time.Since(start).Seconds())
		if csvDir != "" {
			for i, tb := range res.Tables {
				name := filepath.Join(csvDir, fmt.Sprintf("%s_%d.csv", id, i))
				if err := writeFile(name, []byte(tb.CSV())); err != nil {
					fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
					exit = 1
				}
			}
		}
	}
	return exit
}

// parseWorkers parses the -workers sweep list ("1,4" → [1, 4]).
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("invalid worker count %q", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out, nil
}
