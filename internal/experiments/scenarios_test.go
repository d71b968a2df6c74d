package experiments

import (
	"testing"
)

// smallScenario is the reduced fixture the determinism matrix runs on:
// big enough for real dissemination/repair dynamics, small enough that
// every scenario × worker-count cell stays in test (not benchmark)
// territory.
func smallScenario(name string, workers int) ScenarioConfig {
	return ScenarioConfig{
		Name:        name,
		Nodes:       64,
		Keys:        128,
		Seed:        42,
		Warmup:      10,
		FaultRounds: 20,
		MaxRecovery: 120,
		Workers:     workers,
	}
}

// runScenario is RunScenario for a config that must be valid, held to
// the simulator's standing condition on the gossip payload budget: no
// workload here writes anywhere near it, so a single eviction means the
// budget has started to shape simulated behaviour (and the committed
// digests with it).
func runScenario(t *testing.T, cfg ScenarioConfig) *ScenarioResult {
	t.Helper()
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GossipEvictions != 0 {
		t.Fatalf("%s: %d gossip payloads evicted by the byte budget, want 0", cfg.Name, res.GossipEvictions)
	}
	return res
}

func TestScenarioNamesCatalogue(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 5 {
		t.Fatalf("catalogue has %d scenarios, want 5: %v", len(names), names)
	}
	if _, err := RunScenario(ScenarioConfig{Name: "no-such-fault"}); err == nil {
		t.Fatal("unknown scenario name was accepted")
	}
	if _, err := RunScenario(ScenarioConfig{}); err == nil {
		t.Fatal("empty scenario name was accepted")
	}
}

// TestScenarioDigestStableAcrossWorkers is the acceptance bar of the
// scenario engine: every scenario in the suite must produce an
// identical behaviour digest at W ∈ {1, 4} — partitions, overrides,
// flaps and mass events all execute in the serial commit phase, so the
// worker count cannot leak into the trace, with segmented sync,
// supersession hints and the read workload all active. The CI scenario matrix runs the same check per
// scenario under -race at reduced scale.
func TestScenarioDigestStableAcrossWorkers(t *testing.T) {
	for _, name := range ScenarioNames() {
		ref := runScenario(t, smallScenario(name, 1))
		res := runScenario(t, smallScenario(name, 4))
		if ref.Digest() != res.Digest() {
			t.Errorf("%s: W=4 digest %016x != W=1 digest %016x\n W=1: %s\n W=4: %s",
				name, res.Digest(), ref.Digest(), ref, res)
			continue
		}
		// The folded digest covers these, but comparing them individually
		// names the drifted metric on failure.
		if ref.Sent != res.Sent || ref.Delivered != res.Delivered ||
			ref.LostFault != res.LostFault || ref.RoundsToConverge != res.RoundsToConverge ||
			ref.AvailAny != res.AvailAny || ref.StaleCopies != res.StaleCopies {
			t.Errorf("%s: digest matched but metrics differ:\n W=1: %s\n W=4: %s", name, ref, res)
		}
	}
}

// TestScenarioSameSeedTwice guards the harness itself against
// map-iteration or shared-state leaks between runs in one process.
func TestScenarioSameSeedTwice(t *testing.T) {
	a := runScenario(t, smallScenario(ScenarioSplitBrain, 1))
	b := runScenario(t, smallScenario(ScenarioSplitBrain, 1))
	if a.Digest() != b.Digest() {
		t.Fatalf("same-seed scenario runs diverged:\n a: %s\n b: %s", a, b)
	}
	c := runScenario(t, ScenarioConfig{
		Name: ScenarioSplitBrain, Nodes: 64, Keys: 128, Seed: 43,
		Warmup: 10, FaultRounds: 20, MaxRecovery: 120,
	})
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical scenario digests (suspicious)")
	}
}

// TestSplitBrainDivergesAndRepairs pins the dependability shape the
// paper claims: during a split brain the store keeps accepting writes on
// both sides and every key stays readable (availability holds), the
// sides diverge (stale replicas accumulate), and after the heal the
// anti-entropy/repair machinery converges the cluster again.
func TestSplitBrainDivergesAndRepairs(t *testing.T) {
	res := runScenario(t, ScenarioConfig{
		Name: ScenarioSplitBrain, Nodes: 96, Keys: 192, Seed: 42,
		Warmup: 12, MaxRecovery: 300,
	})
	if res.LostFault == 0 {
		t.Fatal("split brain dropped no messages — the partition never took effect")
	}
	if res.AvailAny < 0.98 {
		t.Errorf("availability during partition = %.3f, want ≥ 0.98 (copies exist on both sides)", res.AvailAny)
	}
	if res.StaleCopies < 0.05 {
		t.Errorf("stale-copy fraction during partition = %.3f, want ≥ 0.05 (the sides must diverge)", res.StaleCopies)
	}
	if !res.Converged {
		t.Errorf("cluster did not converge within %d recovery rounds (stale@end=%.3f)", 300, res.StalenessAtFaultEnd)
	}
	if res.Converged && res.RoundsToConverge < 1 {
		t.Errorf("rounds_to_converge = %d, want ≥ 1", res.RoundsToConverge)
	}
}

// TestMassCrashRecoversMembershipAndData pins the correlated-crash
// shape: 30% of members vanish at once (dead-target drops spike), a
// join wave lands while they are down, the revived cohort re-syncs, and
// the cluster converges with the full membership back.
func TestMassCrashRecoversMembershipAndData(t *testing.T) {
	res := runScenario(t, ScenarioConfig{
		Name: ScenarioMassCrash, Nodes: 96, Keys: 192, Seed: 42,
		Warmup: 12, MaxRecovery: 450,
	})
	if res.LostDead == 0 {
		t.Fatal("mass crash produced no dead-target drops — the crash never took effect")
	}
	wantAlive := 96 + 96/20 // full population + the join wave
	if res.AliveEnd != wantAlive {
		t.Errorf("alive at end = %d, want %d (crashed cohort revived + joiners)", res.AliveEnd, wantAlive)
	}
	if !res.Converged {
		t.Errorf("cluster did not converge within 450 recovery rounds (stale@end=%.3f)", res.StalenessAtFaultEnd)
	}
	if res.MeanReplicasEnd < float64(3) {
		t.Errorf("mean replicas at end = %.2f, want ≥ replication target 3", res.MeanReplicasEnd)
	}
}

// TestSlowNodeFullyConverges pins the repair machinery's headline claim
// at test scale: the slow-node scenario reaches *full* convergence —
// every live copy fresh, bystander retentions included — and bystander
// accretion stays bounded.
func TestSlowNodeFullyConverges(t *testing.T) {
	res := runScenario(t, ScenarioConfig{
		Name: ScenarioSlowNode, Nodes: 72, Seed: 42,
		MaxRecovery: 400,
	})
	if !res.FullConverged {
		t.Fatalf("did not fully converge within 400 recovery rounds: %s", res)
	}
	if res.RoundsToFullConverge < res.RoundsToConverge {
		t.Errorf("full convergence (%d) before keeper convergence (%d)",
			res.RoundsToFullConverge, res.RoundsToConverge)
	}
	if res.BystanderCopiesEnd > 2 {
		t.Errorf("bystander copies at end = %.2f per key, want bounded (≤ 2)", res.BystanderCopiesEnd)
	}
	if res.BystandersSuperseded == 0 {
		t.Error("no bystander copies were superseded")
	}
	if res.SyncSegments == 0 {
		t.Error("no sync segments were exchanged")
	}
}

// TestConvergedIdleClusterSyncsCheaply pins the steady state the
// coverage-aware, index-served sync path buys at suite scale. After a
// cluster fully recovers and client load stops, the idle
// tail must show (a) background anti-entropy moving ~no tuples — the
// coverage-carrying leaf replies end the futile re-push of one-sidedly
// covered boundary content that previously repeated every round — and
// (b) syncs served from the digest index, scanning only a sliver of the
// stores instead of walking them.
func TestConvergedIdleClusterSyncsCheaply(t *testing.T) {
	cfg := smallScenario(ScenarioSplitBrain, 1)
	cfg.MaxRecovery = 400
	cfg.IdleTail = 100
	res := runScenario(t, cfg)
	if !res.FullConverged {
		t.Fatalf("cluster did not fully converge, idle tail is meaningless: %s", res)
	}
	if res.IdleDigestServes == 0 {
		t.Fatal("idle tail served no digest queries — background anti-entropy went silent")
	}
	t.Logf("idle tail: %d rounds, %d serves, %d tuples pushed, %d entries scanned (stores hold %d entries on %d nodes)",
		res.IdleRounds, res.IdleDigestServes, res.IdleTuplesPushed, res.IdleEntriesScanned, res.StoreEntries, res.Nodes)
	// (a) ~zero repair traffic per idle round. A residual trickle is
	// allowed (deficit walks still equalise coverage-group holdings right
	// after convergence), but anywhere near one tuple per round means the
	// futile boundary exchange is back.
	if perRound := float64(res.IdleTuplesPushed) / float64(res.IdleRounds); perRound > 0.5 {
		t.Errorf("idle cluster pushed %.2f tuples/round (%d over %d rounds), want ~0",
			perRound, res.IdleTuplesPushed, res.IdleRounds)
	}
	// (b) sub-full-scan serving: mean entries examined per serve must be
	// well below the mean store population a full walk would visit.
	meanStore := float64(res.StoreEntries) / float64(res.Nodes)
	if perServe := float64(res.IdleEntriesScanned) / float64(res.IdleDigestServes); perServe > meanStore/2 {
		t.Errorf("idle serves scanned %.1f entries each with mean store population %.1f — serving is not incremental",
			perServe, meanStore)
	}
}

// TestIdleTailZeroLeavesDigestUnchanged pins that the idle-tail probe is
// purely additive: a positive tail only ever appends rounds (it must
// not perturb the metrics frozen before it).
func TestIdleTailZeroLeavesDigestUnchanged(t *testing.T) {
	base := smallScenario(ScenarioSplitBrain, 1)
	ref := runScenario(t, base)
	tail := base
	tail.IdleTail = 16
	res := runScenario(t, tail)
	if ref.IdleRounds != 0 || ref.IdleDigestServes != 0 {
		t.Errorf("IdleTail=0 run reported idle metrics: %+v", ref)
	}
	if res.Rounds != ref.Rounds+16 {
		t.Errorf("idle tail of 16 moved rounds %d -> %d, want +16", ref.Rounds, res.Rounds)
	}
	// The headline metrics are frozen before the tail runs (end-of-run
	// state like StoreDigest and the fabric accounting legitimately keeps
	// moving through the extra rounds).
	if res.AvailAny != ref.AvailAny || res.StaleCopies != ref.StaleCopies ||
		res.RoundsToFullConverge != ref.RoundsToFullConverge || res.TuplesPushed < ref.TuplesPushed {
		t.Errorf("idle tail perturbed frozen metrics:\n ref: %s\n got: %s", ref, res)
	}
}
