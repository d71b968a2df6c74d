package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json, the contract between this program and
// whatever judges a change by it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runChild runs one workload in a fresh process — this binary again —
// so that one workload's heap, peak RSS and leftover goroutines never
// reach the next. It returns the parsed last line.
func runChild(w workload, seed int64, seconds int, traced bool, outDir string, echo bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if echo && strings.HasPrefix(sc.Text(), "#") {
			fmt.Println(sc.Text())
		}
		last = sc.Text()
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s: last output line is not a report: %w", w.name, err)
	}
	return &rep, nil
}

// runAll is the human entry point: every workload, `repeat` times per
// set, one set — or two with check, which then holds every end-to-end
// metric's two medians against its bound in BENCHMARK.json.
func runAll(seed int64, seconds int, traced bool, repeat int, check bool, outDir string) int {
	fmt.Printf("# %s seed=%d seconds=%d trace=%v\n", hostFingerprint(), seed, seconds, traced)
	sets := 1
	if check {
		sets = 2
	}
	// values[set][workload][metric] are that set's repeats.
	values := make([]map[string]map[string][]float64, sets)
	units := map[string]string{}
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for r := 0; r < repeat; r++ {
			for _, w := range workloads {
				rep, err := runChild(w, seed+int64(s*repeat+r), seconds, traced, outDir, sets*repeat == 1)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if values[s][w.name] == nil {
					values[s][w.name] = map[string][]float64{}
				}
				for name, m := range rep.Metrics {
					values[s][w.name][name] = append(values[s][w.name][name], m.Value)
					units[name] = m.Unit
				}
				fmt.Printf("# set %d run %d %s: attempted=%d failed=%d correct=%v\n", s+1, r+1, w.name, rep.Attempted, rep.Failed, rep.Correct)
			}
		}
	}
	for _, w := range workloads {
		fmt.Printf("\n%s\n", w.name)
		names := make([]string, 0, len(values[0][w.name]))
		for name := range values[0][w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if sets*repeat == 1 {
				fmt.Printf("  %-32s %12.6g %s\n", name, values[0][w.name][name][0], units[name])
				continue
			}
			for s := range values {
				v := values[s][w.name][name]
				lo, hi := v[0], v[0]
				for _, x := range v {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				fmt.Printf("  %-32s set %d  median %12.6g %-6s min %12.6g  max %12.6g  spread %.3f\n",
					name, s+1, median(v), units[name], lo, hi, spread(v))
			}
		}
	}
	if !check {
		return 0
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -check needs the manifest: %v\n", err)
		return 1
	}
	return checkSets(man, values)
}

// checkSets applies the acceptance rule to two sets of runs of the same
// code: for every workload and end-to-end metric the second median may
// not be worse than the first by more than the metric's bound.
func checkSets(man *manifest, values []map[string]map[string][]float64) int {
	bad := 0
	fmt.Println()
	for _, w := range workloads {
		for _, em := range man.EndToEnd {
			first, second := median(values[0][w.name][em.Name]), median(values[1][w.name][em.Name])
			worse := (second - first) / math.Abs(first)
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > em.Bound || math.IsNaN(worse) {
				verdict = "BEYOND BOUND"
				bad++
			}
			fmt.Printf("check %-14s %-16s %12.6g -> %12.6g  worse by %+.3f  bound %.2f  %s\n", w.name, em.Name, first, second, worse, em.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d end-to-end metrics differ between two sets of the same code by more than their bound\n", bad)
		return 1
	}
	return 0
}
