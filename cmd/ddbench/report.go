package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
)

// report is the envelope of every JSON file ddbench writes or verifies
// against. A row is the harness's own exported result
// (experiments.SimScaleResult, ScenarioResult, FuzzCaseResult) as
// encoding/json renders it: nothing is copied into a second schema, and
// rows are keyed and compared by their JSON field names.
type report struct {
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	// Host notes the cores behind the wall-clock fields (parallel
	// speedup is bounded by the cores actually available).
	Host    string            `json:"host,omitempty"`
	Results []json.RawMessage `json:"results"`
}

// wallClock lists the row fields that measure the host and the moment
// rather than the seed. Every other field is exact per seed, and -verify
// compares it exactly.
var wallClock = map[string]bool{
	"elapsed_seconds":   true,
	"rounds_per_sec":    true,
	"seconds_per_round": true,
	"allocs_per_round":  true,
	"bytes_per_round":   true,
}

// writeFile is the one place ddbench writes an output file.
func writeFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func write(path string, rep *report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(buf, '\n'))
}

// row is one result in the three forms the sink needs it.
type row struct {
	// key renders the key fields, e.g. `scenario="slow-node" nodes=48
	// workers=4`: the row's identity within a report and its name in
	// messages.
	key    string
	raw    json.RawMessage
	fields map[string]json.RawMessage
}

// sink receives a run's rows group by group. With -json it merges each
// group into the report file as soon as it is measured, so a run that
// dies keeps what it measured; with -verify it compares each row against
// the committed row of the same key.
type sink struct {
	benchmark string
	seed      int64
	// keyFields are the JSON fields that identify a row within a report.
	keyFields            []string
	jsonPath, verifyPath string

	want     map[string]row // the -verify report's rows by key; nil without -verify
	compared int
	diffs    []string
}

func newSink(benchmark string, seed int64, jsonPath, verifyPath string, keyFields ...string) (*sink, error) {
	s := &sink{benchmark: benchmark, seed: seed, keyFields: keyFields, jsonPath: jsonPath, verifyPath: verifyPath}
	if verifyPath == "" {
		return s, nil
	}
	_, rows, err := s.load(verifyPath)
	if err != nil {
		return nil, fmt.Errorf("-verify: %w", err)
	}
	s.want = make(map[string]row, len(rows))
	for _, r := range rows {
		s.want[r.key] = r
	}
	return s, nil
}

// row encodes v, a result struct or a row of a loaded report.
func (s *sink) row(v any) (r row, err error) {
	if r.raw, err = json.Marshal(v); err == nil {
		err = json.Unmarshal(r.raw, &r.fields)
	}
	parts := make([]string, len(s.keyFields))
	for i, name := range s.keyFields {
		parts[i] = name + "=" + string(r.fields[name])
	}
	r.key = strings.Join(parts, " ")
	return r, err
}

// load reads a report and refuses one of another benchmark or seed: its
// rows are not rows of this run.
func (s *sink) load(path string) (*report, []row, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Benchmark != s.benchmark || rep.Seed != s.seed {
		return nil, nil, fmt.Errorf("%s holds benchmark %q at seed %d, this run is %q at seed %d",
			path, rep.Benchmark, rep.Seed, s.benchmark, s.seed)
	}
	rows := make([]row, len(rep.Results))
	for i, raw := range rep.Results {
		if rows[i], err = s.row(raw); err != nil {
			return nil, nil, fmt.Errorf("%s: row %d: %w", path, i, err)
		}
	}
	return &rep, rows, nil
}

// sweep measures one cell per worker count — with -verify, only the
// cells the committed report has a row for — and hands the rows to add.
// cell names a cell before it is run: a result with just the key fields
// set. The trace is the same at every worker count, only the wall clock
// moves, so rows of one sweep whose digests differ are an error.
func (s *sink) sweep(workers []int, cell func(w int) any, run func(w int) (any, error)) error {
	var rows []row
	for _, w := range workers {
		if skip, err := s.skips(cell(w)); err != nil {
			return err
		} else if skip {
			continue
		}
		v, err := run(w)
		if err != nil {
			return err
		}
		r, err := s.row(v)
		if err != nil {
			return err
		}
		rows = append(rows, r)
		first := rows[0]
		if !bytes.Equal(r.fields["digest"], first.fields["digest"]) {
			return fmt.Errorf("determinism violation: %s has digest %s, %s has %s",
				r.key, r.fields["digest"], first.key, first.fields["digest"])
		}
		if len(rows) > 1 {
			fmt.Printf("%14s digest identical to the %s run\n", "", first.key)
		}
	}
	return s.add(rows)
}

// skips reports whether a -verify run leaves cell out: the committed
// report has no row of its key.
func (s *sink) skips(cell any) (bool, error) {
	if s.want == nil {
		return false, nil
	}
	c, err := s.row(cell)
	if err != nil {
		return false, err
	}
	_, ok := s.want[c.key]
	return !ok, nil
}

// add merges one group of measured rows into the -json report and
// compares it against the -verify report.
func (s *sink) add(rows []row) error {
	if s.jsonPath != "" && len(rows) > 0 {
		if err := s.merge(rows); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	for _, got := range rows {
		want, ok := s.want[got.key]
		if !ok {
			continue
		}
		s.compared++
		names := maps.Clone(got.fields)
		maps.Copy(names, want.fields)
		for _, name := range slices.Sorted(maps.Keys(names)) {
			if !wallClock[name] && !bytes.Equal(got.fields[name], want.fields[name]) {
				s.diffs = append(s.diffs, fmt.Sprintf("%s: %s is %s, %s has %s",
					got.key, name, cmp.Or(string(got.fields[name]), "absent"),
					s.verifyPath, cmp.Or(string(want.fields[name]), "absent")))
			}
		}
	}
	return nil
}

// merge replaces the rows of the -json report that rows re-measures, in
// place, and appends the rest. A report so accumulates sweeps at several
// scales (the committed files hold N=240 and N=48 rows, N=2 000/10 000
// and N=100/500 rows): re-running one leaves the others alone.
func (s *sink) merge(rows []row) error {
	rep, old, err := s.load(s.jsonPath)
	if errors.Is(err, fs.ErrNotExist) {
		rep = &report{Benchmark: s.benchmark, Seed: s.seed}
	} else if err != nil {
		return err
	}
	for _, r := range rows {
		i := slices.IndexFunc(old, func(o row) bool { return o.key == r.key })
		if i < 0 {
			i = len(old)
			old = append(old, r)
			rep.Results = append(rep.Results, nil)
		}
		rep.Results[i] = r.raw
	}
	rep.Host = fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	return write(s.jsonPath, rep)
}

// done closes a -verify run: an error naming every row and field that
// differs, or saying that no row was compared at all.
func (s *sink) done() error {
	switch {
	case s.want == nil:
		return nil
	case s.compared == 0:
		return fmt.Errorf("-verify %s: nothing compared: none of its %d rows is a cell of this sweep",
			s.verifyPath, len(s.want))
	case len(s.diffs) > 0:
		return fmt.Errorf("-verify %s: %d of its %d rows compared, %d fields differ:\n  %s",
			s.verifyPath, s.compared, len(s.want), len(s.diffs), strings.Join(s.diffs, "\n  "))
	}
	fmt.Printf("verify: %d of the %d rows of %s compared; every field outside the wall-clock list reproduces\n",
		s.compared, len(s.want), s.verifyPath)
	return nil
}
