package experiments

import (
	"fmt"
	"testing"
)

// goldenSimScaleDigest pins the complete observable behaviour (fabric
// Stats, every node's store digest, Stored counters) of a fixed-seed
// write+churn+repair run. Scheduler, sampler and storage-engine changes
// must reproduce it byte-for-byte — that is the determinism contract a
// refactor is not allowed to bend. Re-pinned once (was 0xa9f0d6cc126ee97c
// from the pre-optimisation fabric through PR 15) when segmented sync
// and supersession became the only repair behaviour: the run's repair
// traffic itself changed, by design. Re-pinned again (was
// 0x28e18a02121e3435) when gossip relays stopped sending a rumor back
// to the peer that pushed it: fewer envelopes, same random draws.
// Re-pinned again (was 0xbd327ea914f11b7d) when range repair lost its
// staleness-priority re-sync: repair traffic changed, by design.
const goldenSimScaleDigest = 0xac6bc2651fbd6c5e

var goldenConfig = SimScaleConfig{
	Nodes:             192,
	Rounds:            100,
	Warmup:            0,
	Seed:              42,
	WritesPerRound:    8,
	Keys:              512,
	TransientPerRound: 0.004,
	PermanentPerRound: 0.0005,
	MeanDowntime:      8,
	AggregateAttr:     "v",
}

// runSimScale is RunSimScale under runScenario's condition: the gossip
// payload budget never binds in a simulator run.
func runSimScale(t *testing.T, cfg SimScaleConfig) *SimScaleResult {
	t.Helper()
	res := RunSimScale(cfg)
	if res.GossipEvictions != 0 {
		t.Fatalf("%d gossip payloads evicted by the byte budget, want 0", res.GossipEvictions)
	}
	return res
}

// TestSimScaleGoldenDigest proves byte-identical behaviour across the
// scheduler/store refactor for a fixed seed.
func TestSimScaleGoldenDigest(t *testing.T) {
	res := runSimScale(t, goldenConfig)
	if got := res.Digest(); got != goldenSimScaleDigest {
		t.Fatalf("behaviour digest drifted: got %#016x want %#016x\n"+
			"full result: %+v\n"+
			"a mismatch means the refactor changed observable behaviour (message\n"+
			"order, RNG consumption, or store content) for the same seed",
			got, uint64(goldenSimScaleDigest), res)
	}
}

// TestSimScaleSameSeedTwice is the self-consistency half of the golden
// test: two runs in one process must agree exactly (guards against
// map-iteration or shared-state leaks in the harness itself).
func TestSimScaleSameSeedTwice(t *testing.T) {
	cfg := goldenConfig
	cfg.Nodes = 96
	cfg.Rounds = 60
	a := runSimScale(t, cfg)
	b := runSimScale(t, cfg)
	if a.Digest() != b.Digest() {
		t.Fatalf("same-seed runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestSimScaleGoldenDigestAcrossWorkerCounts is the acceptance bar of the
// parallel-executor refactor: the golden digest — pinned before the
// executor existed — must hold unchanged at every worker count, on the
// full churn-enabled fixture (goldenConfig kills, revives and
// permanently fails nodes throughout). Per-node store digests are also
// compared against the serial run so a divergence names the first node
// that drifted rather than only failing the folded digest.
func TestSimScaleGoldenDigestAcrossWorkerCounts(t *testing.T) {
	ref := runSimScale(t, goldenConfig) // serial reference (Workers = 0 → 1)
	if got := ref.Digest(); got != goldenSimScaleDigest {
		t.Fatalf("serial digest drifted: got %#016x want %#016x", got, uint64(goldenSimScaleDigest))
	}
	for _, w := range []int{1, 2, 4, 8} {
		cfg := goldenConfig
		cfg.Workers = w
		res := runSimScale(t, cfg)
		if got := res.Digest(); got != goldenSimScaleDigest {
			t.Errorf("W=%d: behaviour digest drifted: got %#016x want %#016x", w, got, uint64(goldenSimScaleDigest))
		}
		compareSimScaleRuns(t, "serial", fmt.Sprintf("W=%d", w), ref, res)
		if t.Failed() {
			t.FailNow()
		}
	}
}
