package experiments

import (
	"fmt"
	"testing"
)

// TestDeterminismAtScale runs a 2000-node cluster with churn twice under
// the same seed and asserts the runs agree on every observable: fabric
// Stats, each node's full-ring store digest, and each node's Stored
// counter. This is the scale regime the scheduler ring, O(k) sampler and
// seen-table optimisations target — small-population tests would not
// notice, e.g., a ring-slot collision that only occurs once queues carry
// tens of thousands of messages.
func TestDeterminismAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-node double run takes several seconds")
	}
	cfg := SimScaleConfig{
		Nodes:             2000,
		Rounds:            40,
		Warmup:            0,
		Seed:              1234,
		WritesPerRound:    16,
		TransientPerRound: 0.002,
		PermanentPerRound: 0.0002,
		MeanDowntime:      10,
		AggregateAttr:     "v",
	}
	a := runSimScale(t, cfg)
	b := runSimScale(t, cfg)
	compareSimScaleRuns(t, "run A (serial)", "run B (serial)", a, b)
}

// TestDeterminismAtScaleAcrossWorkers is the same-seed double-run at
// paper-relevant scale across the two-phase executor's worker counts: a
// 2000-node churn-enabled run at W ∈ {2, 4, 8} must agree with the
// serial run on every observable — fabric Stats, each node's full-ring
// store digest and Stored counter. Populations this size are where
// sharding bugs that small fixtures cannot see (delivery skew across
// shards, commit-order slips under tens of thousands of queued messages)
// would surface.
func TestDeterminismAtScaleAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-node multi-worker runs take tens of seconds")
	}
	cfg := SimScaleConfig{
		Nodes:             2000,
		Rounds:            40,
		Warmup:            0,
		Seed:              1234,
		WritesPerRound:    16,
		TransientPerRound: 0.002,
		PermanentPerRound: 0.0002,
		MeanDowntime:      10,
		AggregateAttr:     "v",
	}
	ref := runSimScale(t, cfg)
	for _, w := range []int{2, 4, 8} {
		pcfg := cfg
		pcfg.Workers = w
		res := runSimScale(t, pcfg)
		compareSimScaleRuns(t, "serial", fmt.Sprintf("W=%d", w), ref, res)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestHistoryDeterministicAcrossWorkers: the recorded client history —
// every op field, not just the digest — must be byte-identical at every
// fabric worker count. The recording hot path crosses the compute phase
// (OnHint queues) and the serial reap, so this is where a sharding race
// in the oracle plumbing would surface.
func TestHistoryDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("four full scenario runs take seconds")
	}
	base := ScenarioConfig{
		Name:          ScenarioSplitBrain,
		Nodes:         48,
		Seed:          4242,
		ReadsPerRound: 6,
		RecordHistory: true,
	}
	var ref *ScenarioResult
	for _, w := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Workers = w
		res := runScenario(t, cfg)
		if res.History.Len() == 0 {
			t.Fatal("oracle mode recorded no operations")
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.HistoryDigest != ref.HistoryDigest {
			t.Errorf("W=%d: history digest %016x, serial %016x", w, res.HistoryDigest, ref.HistoryDigest)
		}
		if len(res.History.Ops) != len(ref.History.Ops) {
			t.Fatalf("W=%d: %d ops vs serial %d", w, len(res.History.Ops), len(ref.History.Ops))
		}
		for i := range ref.History.Ops {
			if res.History.Ops[i] != ref.History.Ops[i] {
				t.Fatalf("W=%d: op %d diverged:\n serial: %s\n W=%d:   %s",
					w, i, ref.History.Ops[i], w, res.History.Ops[i])
			}
		}
		if res.Digest() != ref.Digest() {
			t.Errorf("W=%d: result digest %016x, serial %016x", w, res.Digest(), ref.Digest())
		}
	}
}

// compareSimScaleRuns asserts two runs agree on every observable the
// determinism contract covers.
func compareSimScaleRuns(t *testing.T, an, bn string, a, b *SimScaleResult) {
	t.Helper()
	if a.Sent != b.Sent || a.Delivered != b.Delivered ||
		a.LostLink != b.LostLink || a.LostDead != b.LostDead {
		t.Fatalf("sim.Stats diverged:\n %s: sent=%d delivered=%d lostLink=%d lostDead=%d\n %s: sent=%d delivered=%d lostLink=%d lostDead=%d",
			an, a.Sent, a.Delivered, a.LostLink, a.LostDead,
			bn, b.Sent, b.Delivered, b.LostLink, b.LostDead)
	}
	if a.AliveEnd != b.AliveEnd {
		t.Fatalf("alive count diverged between %s and %s: %d vs %d", an, bn, a.AliveEnd, b.AliveEnd)
	}
	if len(a.NodeDigests) != len(b.NodeDigests) {
		t.Fatalf("population diverged between %s and %s: %d vs %d nodes", an, bn, len(a.NodeDigests), len(b.NodeDigests))
	}
	for i := range a.NodeDigests {
		if a.NodeDigests[i] != b.NodeDigests[i] {
			t.Errorf("node %d: store digest diverged between %s and %s: %016x vs %016x", i+1, an, bn, a.NodeDigests[i], b.NodeDigests[i])
		}
		if a.NodeStored[i] != b.NodeStored[i] {
			t.Errorf("node %d: Stored counter diverged between %s and %s: %d vs %d", i+1, an, bn, a.NodeStored[i], b.NodeStored[i])
		}
		if t.Failed() && i > 20 {
			t.Fatal("stopping after first divergent nodes")
		}
	}
}
