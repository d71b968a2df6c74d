// Command bench is the repository's benchmark (BENCHMARK.json names it).
//
//	go run ./bench                                   every workload, one child process each
//	go run ./bench -trace 1                          the traced run: per-layer metrics and span files
//	go run ./bench -repeat 2 -check                  the repeatability check
//	go run ./bench -workload serve-read -seed 7 -seconds 56 -trace 0
//
// The last form is what the acceptance driver calls; its last line of
// standard output is one JSON object. README.md in this directory
// defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeconds is the measured time per run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 56

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed    = flag.Int64("seed", 42, "seed of keys, values, op mix and key ranks")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing span files")
		repeat  = flag.Int("repeat", 1, "run every workload this many times per set")
		check   = flag.Bool("check", false, "with -repeat: run two sets and fail if an end-to-end metric differs between them by more than its bound")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *repeat, *check, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, *outDir))
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload through the whole pipeline: the workload
// itself and, on a traced run, the layer probes and the span file.
func execute(w workload, seed int64, seconds int, traced bool, outDir string, sz probeSizes) (*runResult, error) {
	pl := makePlan(seconds, traced)
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	var res *runResult
	var err error
	if w.sim {
		res, err = runSim(w, seed, pl, tr)
	} else {
		res, err = runServe(w, seed, pl, tr)
	}
	if !traced {
		return res, err
	}
	if err == nil {
		err = layerProbes(w, seed, tr, res, sz)
	}
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if werr := tr.write(path); werr != nil && err == nil {
		err = fmt.Errorf("write spans: %w", werr)
	}
	res.notef("%d spans in %s", len(tr.spans), path)
	return res, err
}

// runOne runs one workload in this process and prints its report. Any
// failed operation or correctness violation makes the exit code 1.
func runOne(w workload, seed int64, seconds int, traced bool, outDir string) int {
	fmt.Printf("# %s seed=%d seconds=%d trace=%v conns=%d\n# %s\n", w.name, seed, seconds, traced, loadConns(), hostFingerprint())
	res, err := execute(w, seed, seconds, traced, outDir, fullProbes)
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "bench: "+v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	out := res.e2e
	if traced {
		out = res.layer
	}
	printMetrics(out)
	for k, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s has no value (no samples)\n", w.name, k)
			return 1
		}
	}
	if res.attempted < 1 {
		res.attempted = 1
	}
	rep := report{
		Correct:   len(res.violations) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   out,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
