package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	committedScenarios = "../../BENCH_scenarios.json"
	committedSimScale  = "../../BENCH_simscale.json"
	committedFuzz      = "../../BENCH_fuzz.json"
)

// TestCommittedRowsReproduce runs what CI's bench-smoke runs: the
// reduced-scale sweeps with -verify against the committed reports. Every
// field of every compared row outside the wall-clock list must come out
// as committed — a change of simulated behaviour fails here, and
// re-baselines deliberately or not at all.
func TestCommittedRowsReproduce(t *testing.T) {
	if err := runScenarios(42, 0.1, "all", "", committedScenarios, []int{1, 4}, 0); err != nil {
		t.Error(err)
	}
	// Two of the fuzz report's eight seeds: the recording client and the
	// oracle's verdicts, as committed.
	if err := runFuzz(42, 2, 0.2, "", committedFuzz, []int{1, 4}); err != nil {
		t.Error(err)
	}
	if testing.Short() {
		t.Log("simscale rows skipped in -short (~11 s)")
		return
	}
	if err := runSimScale(42, 0.05, "", committedSimScale, []int{1, 4}); err != nil {
		t.Error(err)
	}
}

// doctored writes a copy of a committed report into a temp directory
// after edit has been applied to every row's fields.
func doctored(t *testing.T, benchmark, path string, edit func(fields map[string]json.RawMessage)) string {
	t.Helper()
	s := &sink{benchmark: benchmark, seed: 42}
	rep, rows, err := s.load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		edit(r.fields)
		if rep.Results[i], err = json.Marshal(r.fields); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(t.TempDir(), "doctored.json")
	if err := write(out, rep); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestVerifyNamesRowAndField(t *testing.T) {
	path := doctored(t, "scenarios", committedScenarios, func(f map[string]json.RawMessage) {
		switch {
		case string(f["scenario"]) == `"slow-node"` && string(f["nodes"]) == "48" && string(f["workers"]) == "4":
			var pushed int64
			if err := json.Unmarshal(f["tuples_pushed"], &pushed); err != nil {
				t.Fatal(err)
			}
			f["tuples_pushed"], _ = json.Marshal(pushed + 1)
		case string(f["scenario"]) == `"mass-crash"` && string(f["nodes"]) == "48" && string(f["workers"]) == "1":
			f["digest"] = json.RawMessage(`"0000000000000000"`)
		}
	})
	err := runScenarios(42, 0.1, "slow-node,mass-crash", "", path, []int{1, 4}, 0)
	if err == nil {
		t.Fatal("two doctored rows verified clean")
	}
	for _, want := range []string{
		`scenario="slow-node" nodes=48 workers=4: tuples_pushed is`,
		`scenario="mass-crash" nodes=48 workers=1: digest is`,
		"4 of its 20 rows compared, 2 fields differ",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q:\n%v", want, err)
		}
	}
}

// TestFuzzVerifyNamesSeedAndField: a fuzz row that does not reproduce
// fails the run by its (seed, nodes) key and field, and only the seeds
// the report has rows for are run.
func TestFuzzVerifyNamesSeedAndField(t *testing.T) {
	path := doctored(t, "fuzz", committedFuzz, func(f map[string]json.RawMessage) {
		if string(f["seed"]) == "43" {
			f["ops"] = json.RawMessage("1")
		}
	})
	err := runFuzz(42, 2, 0.2, "", path, []int{1})
	if err == nil || !strings.Contains(err.Error(), "seed=43 nodes=48: ops is") ||
		!strings.Contains(err.Error(), "2 of its 8 rows compared, 1 fields differ") {
		t.Fatalf("err = %v, want the doctored row and field named", err)
	}
}

func TestVerifyNothingComparedIsAnError(t *testing.T) {
	path := doctored(t, "scenarios", committedScenarios, func(f map[string]json.RawMessage) { f["nodes"] = json.RawMessage("47") })
	err := runScenarios(42, 0.1, "all", "", path, []int{1, 4}, 0)
	if err == nil || !strings.Contains(err.Error(), "nothing compared") {
		t.Fatalf("err = %v, want \"nothing compared\"", err)
	}
}

func TestVerifyRefusesAnotherBenchmarkOrSeed(t *testing.T) {
	err := runScenarios(43, 0.1, "slow-node", "", committedScenarios, []int{1}, 0)
	if err == nil || !strings.Contains(err.Error(), "seed 42") {
		t.Errorf("seed 43 against a seed-42 report: err = %v", err)
	}
	err = runSimScale(42, 0.05, "", committedScenarios, []int{1})
	if err == nil || !strings.Contains(err.Error(), `benchmark "scenarios"`) {
		t.Errorf("simscale against the scenarios report: err = %v", err)
	}
}

// TestWriteRoundTripsCommittedReports: the committed files are exactly
// what the writer produces from them, so a re-measured sweep shows up in
// git diff as its own rows and nothing else.
func TestWriteRoundTripsCommittedReports(t *testing.T) {
	for benchmark, path := range map[string]string{"scenarios": committedScenarios, "simscale": committedSimScale, "fuzz": committedFuzz} {
		s := &sink{benchmark: benchmark, seed: 42}
		rep, _, err := s.load(path)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "out.json")
		if err := write(out, rep); err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(path)
		got, _ := os.ReadFile(out)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: write(load(f)) differs from f", path)
		}
	}
}

func TestMergeReplacesSameKeyRowsAndKeepsTheRest(t *testing.T) {
	type result struct {
		Nodes   int    `json:"nodes"`
		Workers int    `json:"workers"`
		Sent    int    `json:"sent"`
		Digest  string `json:"digest"`
	}
	path := filepath.Join(t.TempDir(), "merged.json")
	s, err := newSink("simscale", 7, path, "", "nodes", "workers")
	if err != nil {
		t.Fatal(err)
	}
	add := func(results ...result) {
		t.Helper()
		rows := make([]row, len(results))
		for i, r := range results {
			if rows[i], err = s.row(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.add(rows); err != nil {
			t.Fatal(err)
		}
	}
	add(result{100, 1, 10, "aa"}, result{100, 4, 10, "aa"})
	add(result{500, 1, 50, "bb"})
	add(result{100, 4, 11, "cc"}, result{500, 4, 50, "bb"})

	_, rows, err := s.load(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, string(r.raw))
	}
	want := []string{
		`{"nodes":100,"workers":1,"sent":10,"digest":"aa"}`,
		`{"nodes":100,"workers":4,"sent":11,"digest":"cc"}`,
		`{"nodes":500,"workers":1,"sent":50,"digest":"bb"}`,
		`{"nodes":500,"workers":4,"sent":50,"digest":"bb"}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("merged rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A report of another seed is not merged into.
	other, err := newSink("simscale", 8, path, "", "nodes", "workers")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := other.row(result{100, 1, 10, "aa"})
	if err := other.add([]row{r}); err == nil || !strings.Contains(err.Error(), "seed 7") {
		t.Errorf("merging seed 8 rows into a seed-7 report: err = %v", err)
	}
}
