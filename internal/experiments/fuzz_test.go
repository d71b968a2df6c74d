package experiments

import (
	"strings"
	"testing"
)

// TestFuzzCaseSpecIsSeedPure: the schedule and read distribution are a
// pure function of the seed — the repro contract.
func TestFuzzCaseSpecIsSeedPure(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ev1, d1 := fuzzCaseEvents(seed, 48, 40)
		ev2, d2 := fuzzCaseEvents(seed, 48, 40)
		if EventsSpec(ev1) != EventsSpec(ev2) || d1 != d2 {
			t.Fatalf("seed %d: case derivation not pure", seed)
		}
		if len(ev1) < 1 || len(ev1) > 3 {
			t.Fatalf("seed %d: %d events, want 1..3", seed, len(ev1))
		}
	}
}

// TestFuzzCleanSweep: a short sweep over the current tree must be
// violation-free at every checked worker count. (CI runs a larger
// budget; see the fuzz gate and the scheduled soak.)
func TestFuzzCleanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep is seconds-long; skipped in -short")
	}
	cases, err := RunFuzz(FuzzConfig{Seeds: 4, BaseSeed: 1000, Workers: []int{1, 2}, Nodes: 36}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, v := range c.Violations {
			t.Errorf("seed %d: %s", c.Seed, v)
		}
		if len(c.Violations) > 0 {
			t.Errorf("repro: %s", c.Repro)
		}
	}
}

// TestFuzzCatchesInjectedStaleReads: with the deliberately broken client
// (observations rewound by one sequence number) the oracle must flag
// session violations and the case must carry a one-line repro.
func TestFuzzCatchesInjectedStaleReads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario; skipped in -short")
	}
	injectStaleReads = true
	defer func() { injectStaleReads = false }()
	cr, err := RunFuzzCase(1001, []int{1}, 36, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Violations) == 0 {
		t.Fatal("injected stale reads produced no oracle violations")
	}
	if cr.Repro == "" || !strings.Contains(cr.Repro, "seed=1001") || !strings.Contains(cr.Repro, "scenario-spec=") {
		t.Fatalf("bad repro line: %q", cr.Repro)
	}
	t.Logf("caught: %d violations, e.g. %s", len(cr.Violations), cr.Violations[0])
	t.Logf("repro: %s", cr.Repro)
}
