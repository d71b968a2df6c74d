package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/oracle"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
	"datadroplets/internal/workload"
)

// The fault-scenario suite: each scenario subjects a persistent-layer
// cluster to one of the correlated failure modes the paper's
// dependability claims are about, while a write workload keeps running,
// and measures the dependability envelope — availability and staleness
// during the fault, and rounds to convergence after it heals. Every run
// is seed-deterministic and digest-stable across worker counts (the
// fault schedule executes in the fabric's serial commit phase), which
// the CI scenario matrix enforces.

// Scenario names, in catalogue order.
const (
	ScenarioSplitBrain   = "split-brain"
	ScenarioFlapStorm    = "flap-storm"
	ScenarioMassCrash    = "mass-crash"
	ScenarioSlowNode     = "slow-node"
	ScenarioLatencySpike = "latency-spike"
)

// scenarioCatalog lists the suite with the fault window each scenario
// measures under (catalogueEvents holds the schedules).
var scenarioCatalog = []struct {
	name        string
	faultRounds int
}{
	{ScenarioSplitBrain, 40},   // 60/40 network partition; writes land on both sides; heal and converge
	{ScenarioFlapStorm, 48},    // 10% of members flap (down 3 of every 8 rounds) for the whole window
	{ScenarioMassCrash, 30},    // 30% of members crash simultaneously, revive together 20 rounds later
	{ScenarioSlowNode, 40},     // 5% of members turn slow and lossy (+3 rounds delay, 15% loss)
	{ScenarioLatencySpike, 20}, // global latency surge: every message +2..4 rounds of delay
}

// ScenarioNames returns the suite's scenario names in catalogue order.
func ScenarioNames() []string {
	out := make([]string, len(scenarioCatalog))
	for i, s := range scenarioCatalog {
		out[i] = s.name
	}
	return out
}

// ScenarioConfig parameterises one scenario run. Zero values select the
// defaults, which target a few-hundred-node cluster so the full suite
// stays in benchmark (not batch-job) territory; Scale in ddbench shrinks
// it further for CI.
type ScenarioConfig struct {
	// Name selects the scenario (see ScenarioNames).
	Name string
	// Nodes is the persistent-layer population. Zero means 240.
	Nodes int
	// Keys is the preloaded key-space size. Zero means 4*Nodes.
	Keys int
	// Seed feeds the fabric, the machines, the workload and the fault
	// schedule.
	Seed int64
	// Workers shards the fabric compute phase; the digest is identical
	// at every setting.
	Workers int
	// Warmup rounds let estimators settle before the preload. Zero
	// means 30.
	Warmup int
	// FaultRounds overrides the scenario's fault-window length.
	FaultRounds int
	// MaxRecovery bounds the post-fault wait for *full* convergence —
	// every copy fresh, bystanders included. Zero means 800: full
	// convergence is heavy-tailed (flap-storm's last stale bystander
	// clears around round 600 at seed 42).
	MaxRecovery int
	// ReadsPerRound is the read load driving read-repair during the
	// fault window and recovery. Zero means 4; negative means no reads.
	ReadsPerRound int
	// ReadDist selects the read workload's key distribution (see
	// workload.ReadDists): uniform (default), zipf, hot, or scan.
	ReadDist string
	// RecordHistory switches the workload to oracle mode: operations
	// issue from per-client sticky sessions, every client-visible op
	// (with its written/observed version and issue/complete rounds) is
	// recorded in a workload.History, and the result carries the
	// end-state replica map for convergence checking. Off by default;
	// the default workload and its traces are untouched.
	RecordHistory bool
	// Events overrides the fault schedule (nil: the Name's catalogue
	// schedule). The fuzzer composes schedules here; Name then only
	// labels the run.
	Events []FaultEvent
	// IdleTail, when positive, keeps the cluster running that many extra
	// client-free rounds after the recovery phase and reports the repair
	// traffic and digest-serve cost of the tail as deltas (the Idle*
	// result fields). This is the steady-state probe: a converged idle
	// cluster should push ~no tuples and serve its background syncs from
	// the digest index, not by store scans. Zero (the default) skips the
	// tail entirely — rounds, trace and digests are unchanged.
	IdleTail int
}

// The workload shape the harnesses share.
const (
	replication            = 3 // target copy count r of every scenario and simscale run
	scenarioWritesPerRound = 8 // sustained write load during a scenario's fault window
	scenarioClients        = 8 // recording client sessions (oracle mode only)
)

func (c ScenarioConfig) normalized() (ScenarioConfig, error) {
	if len(c.Events) > 0 {
		// Explicit schedule: the name is just a label.
		if c.Name == "" {
			c.Name = "custom"
		}
		if c.FaultRounds <= 0 {
			c.FaultRounds = 40
		}
	} else {
		if c.Name == "" {
			return c, fmt.Errorf("experiments: scenario name required (have %s)", strings.Join(ScenarioNames(), ", "))
		}
		found := false
		for _, s := range scenarioCatalog {
			if s.name == c.Name {
				found = true
				if c.FaultRounds <= 0 {
					c.FaultRounds = s.faultRounds
				}
			}
		}
		if !found {
			return c, fmt.Errorf("experiments: unknown scenario %q (have %s)", c.Name, strings.Join(ScenarioNames(), ", "))
		}
	}
	if c.Nodes <= 0 {
		c.Nodes = 240
	}
	if c.Keys <= 0 {
		c.Keys = 4 * c.Nodes
	}
	if c.Warmup <= 0 {
		c.Warmup = 30
	}
	if c.MaxRecovery <= 0 {
		c.MaxRecovery = 800
	}
	if c.ReadsPerRound == 0 {
		c.ReadsPerRound = 4
	}
	return c, nil
}

// ScenarioResult reports one scenario run. The availability metrics are
// oracle-style (computed by inspecting every alive store between rounds,
// never by sending messages, so measurement cannot perturb the trace):
// a key is "available" when at least one alive node holds a live copy,
// and "fresh" when at least one alive node holds its latest written
// version.
type ScenarioResult struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Keys     int    `json:"keys"`
	Workers  int    `json:"workers"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"` // total rounds stepped

	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Mean over the fault window of the fraction of keys with ≥1 alive
	// live copy / with the latest version reachable.
	AvailAny   float64 `json:"availability_any"`
	AvailFresh float64 `json:"availability_fresh"`
	// Mean fraction of live copies holding an outdated version during
	// the fault window (write divergence, bystander retentions included),
	// the keeper-only subset (responsible replicas serving old data —
	// repair's actual debt), and the overall fraction at the round the
	// window ends.
	StaleCopies         float64 `json:"stale_copies"`
	StaleKeepers        float64 `json:"stale_keeper_copies"`
	StalenessAtFaultEnd float64 `json:"staleness_at_fault_end"`
	// Rounds after the fault window until every key was fresh-available
	// and no *responsible* (keeper) replica served an outdated version
	// (-1 if MaxRecovery elapsed first). Stale bystander copies are
	// excluded here; RoundsToFullConverge includes them.
	RoundsToConverge int  `json:"rounds_to_converge"`
	Converged        bool `json:"converged"`
	// Rounds after the fault window until every live copy — bystander
	// retentions included — held the latest version (-1 if MaxRecovery
	// elapsed first).
	RoundsToFullConverge int  `json:"rounds_to_full_convergence"`
	FullConverged        bool `json:"full_converged"`
	// Mean alive *keeper* replicas per key once converged (or at the
	// recovery cap): copies held by nodes currently responsible for the
	// key. Bystander copies are reported separately below, not folded in.
	MeanReplicasEnd float64 `json:"mean_replicas_end"`
	// Mean bystander copies per key at the end of the run — last-resort
	// retentions on nodes outside every arc. Supersession must keep this
	// bounded under sustained rewrites.
	BystanderCopiesEnd float64 `json:"bystander_copies_end"`

	// Repair-traffic counters summed across nodes at the end of the run.
	SyncSegments         int64 `json:"sync_segments"`
	TuplesPushed         int64 `json:"tuples_pushed"`
	ReadRepairs          int64 `json:"read_repairs"`
	BystandersSuperseded int64 `json:"bystanders_superseded"`

	// Digest-serve cost summed across nodes (store.ServeStats): arc-query
	// ops the run's repair traffic triggered, entries examined one by one
	// in partial index buckets, and whole buckets folded from their
	// precomputed digest. Cost accounting, not observable behaviour —
	// deliberately excluded from Digest so serving-strategy changes don't
	// invalidate committed golden digests.
	DigestServes         int64 `json:"digest_serves"`
	DigestEntriesScanned int64 `json:"digest_entries_scanned"`
	DigestBucketsFolded  int64 `json:"digest_buckets_folded"`

	// Idle-tail deltas (IdleTail > 0 only): what IdleTail client-free
	// rounds after recovery cost in repair pushes and digest serving.
	// Excluded from Digest like the serve counters above.
	IdleRounds         int   `json:"idle_rounds,omitempty"`
	IdleTuplesPushed   int64 `json:"idle_tuples_pushed,omitempty"`
	IdleDigestServes   int64 `json:"idle_digest_serves,omitempty"`
	IdleEntriesScanned int64 `json:"idle_entries_scanned,omitempty"`

	// StoreEntries is the total store population (tombstones included)
	// across all nodes at the end of the run — the yardstick the scan
	// counters are read against (scanned/serve ≈ mean store size would
	// mean full scans are back). Excluded from Digest with the rest of
	// the cost accounting.
	StoreEntries int64 `json:"store_entries"`
	// GossipEvictions sums the payloads every node's gossip cache dropped
	// to its byte budget. No workload here writes near the budget, so
	// anything but 0 means the budget has started to shape simulated
	// behaviour; the tests assert 0.
	GossipEvictions int64 `json:"-"`

	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	LostLink  int64 `json:"lost_link"`
	LostDead  int64 `json:"lost_dead"`
	LostFault int64 `json:"lost_fault"`
	AliveEnd  int   `json:"alive_end"`

	StoreDigest uint64 `json:"-"`

	// Oracle-mode (RecordHistory) outputs: the recorded client history,
	// its digest (folded into Digest so a history divergence fails the
	// cross-worker check), and the end-state replica map for the
	// convergence oracle. Empty/zero on default runs.
	History       *workload.History    `json:"-"`
	HistoryDigest uint64               `json:"history_digest,omitempty"`
	Replicas      []oracle.KeyReplicas `json:"-"`

	// DigestHex is Digest() as the report row carries it.
	DigestHex string `json:"digest"`
}

// Digest folds the run's observable behaviour — fabric accounting, fault
// drops, every node's store content, and the dependability metrics —
// into one value; equal configs must reproduce it bit for bit at every
// worker count.
func (r *ScenarioResult) Digest() uint64 {
	h := uint64(0x5ce7a610d1ce5701)
	for _, c := range []byte(r.Scenario) {
		h = mix(h, uint64(c))
	}
	h = mix(h, uint64(r.Sent))
	h = mix(h, uint64(r.Delivered))
	h = mix(h, uint64(r.LostLink))
	h = mix(h, uint64(r.LostDead))
	h = mix(h, uint64(r.LostFault))
	h = mix(h, uint64(r.AliveEnd))
	h = mix(h, r.StoreDigest)
	h = mix(h, uint64(int64(r.RoundsToConverge)))
	h = mix(h, uint64(int64(r.RoundsToFullConverge)))
	h = mix(h, math.Float64bits(r.AvailAny))
	h = mix(h, math.Float64bits(r.AvailFresh))
	h = mix(h, math.Float64bits(r.StaleCopies))
	h = mix(h, math.Float64bits(r.StaleKeepers))
	h = mix(h, math.Float64bits(r.StalenessAtFaultEnd))
	h = mix(h, math.Float64bits(r.MeanReplicasEnd))
	h = mix(h, math.Float64bits(r.BystanderCopiesEnd))
	h = mix(h, uint64(r.SyncSegments))
	h = mix(h, uint64(r.TuplesPushed))
	h = mix(h, uint64(r.ReadRepairs))
	h = mix(h, uint64(r.BystandersSuperseded))
	if r.HistoryDigest != 0 {
		// Only mixed when a history was recorded: mix(h, 0) != h, and
		// default-run digests must not depend on the oracle mode.
		h = mix(h, r.HistoryDigest)
	}
	return h
}

// String renders the headline numbers.
func (r *ScenarioResult) String() string {
	return fmt.Sprintf("%s N=%d W=%d avail=%.3f fresh=%.3f stale=%.3f stale@end=%.3f converge=%d full=%d replicas=%.2f bystanders=%.2f digest=%016x",
		r.Scenario, r.Nodes, r.Workers, r.AvailAny, r.AvailFresh, r.StaleCopies,
		r.StalenessAtFaultEnd, r.RoundsToConverge, r.RoundsToFullConverge,
		r.MeanReplicasEnd, r.BystanderCopiesEnd, r.Digest())
}

// scenarioProbe tracks per-key oracle state for one measurement pass.
type scenarioProbe struct {
	keyIdx map[string]int
	points []node.Point // hashed ring position per key
	latest []uint64     // latest written Seq per key
	writer []node.ID    // writer of the latest version per key
	anyHit []bool
	fresh  []bool

	holders []int

	copies       int // live copies of tracked keys across alive nodes
	staleCopies  int // copies whose version is behind the latest write
	staleKeepers int // stale copies on nodes currently responsible for the key
	bystanders   int // copies on nodes not responsible for the key (stale or not)
}

func newScenarioProbe(keys int) *scenarioProbe {
	p := &scenarioProbe{
		keyIdx:  make(map[string]int, keys),
		points:  make([]node.Point, keys),
		latest:  make([]uint64, keys),
		writer:  make([]node.ID, keys),
		anyHit:  make([]bool, keys),
		fresh:   make([]bool, keys),
		holders: make([]int, keys),
	}
	for ki := range keys {
		k := scenarioKey(ki)
		p.keyIdx[k] = ki
		p.points[ki] = node.HashKey(k)
	}
	return p
}

// observe sweeps every alive store once (borrowed iteration, no clones,
// no messages) and refreshes the per-key availability state.
func (p *scenarioProbe) observe(net *sim.Network, nodes []*epidemic.Node) {
	for i := range p.anyHit {
		p.anyHit[i] = false
		p.fresh[i] = false
		p.holders[i] = 0
	}
	p.copies, p.staleCopies, p.staleKeepers, p.bystanders = 0, 0, 0, 0
	for _, en := range nodes {
		if !net.Alive(en.Self) {
			continue
		}
		en.St.ForEachRef(func(t *tuple.Tuple) bool {
			if t.Deleted {
				return true
			}
			ki, ok := p.keyIdx[t.Key]
			if !ok {
				return true
			}
			p.anyHit[ki] = true
			p.copies++
			// A copy on a node that currently covers the key is a keeper
			// replica — the redundancy the repair machinery maintains. A
			// bystander copy (an old write-origin's last-resort retention
			// outside every arc) serves reads but is counted separately:
			// folding it into the replica count would hide accretion.
			covers := en.Repair != nil && en.Repair.Covers(p.points[ki])
			if covers {
				p.holders[ki]++
			} else {
				p.bystanders++
			}
			if t.Version.Seq == p.latest[ki] {
				p.fresh[ki] = true
			} else {
				p.staleCopies++
				// Stale keeper: a responsible replica serving old data —
				// the repair machinery's hard debt. A stale bystander is
				// read-resolved past by version, but supersession still
				// owes it a drop or refresh (see fullConverged).
				if covers {
					p.staleKeepers++
				}
			}
			return true
		})
	}
}

// staleFrac returns the fraction of live copies holding an outdated
// version — the replica-divergence measure (a split brain drives it up;
// anti-entropy and repair must drive it back to zero).
func (p *scenarioProbe) staleFrac() float64 {
	if p.copies == 0 {
		return 0
	}
	return float64(p.staleCopies) / float64(p.copies)
}

// staleKeeperFrac returns the fraction of live copies that are stale on
// a currently responsible node.
func (p *scenarioProbe) staleKeeperFrac() float64 {
	if p.copies == 0 {
		return 0
	}
	return float64(p.staleKeepers) / float64(p.copies)
}

// converged reports keeper repair completion: every key fresh-reachable
// and no responsible replica serving an outdated version. Stale
// bystander copies (publisher retentions outside every arc) are excluded
// — reads resolve past them by version; fullConverged includes them.
func (p *scenarioProbe) converged() bool {
	if p.staleKeepers > 0 {
		return false
	}
	for _, f := range p.fresh {
		if !f {
			return false
		}
	}
	return true
}

// fullConverged reports total convergence: every key fresh-reachable and
// not a single live copy — bystander retentions included — behind the
// latest version. This is the criterion the supersession and read-repair
// machinery is accountable to.
func (p *scenarioProbe) fullConverged() bool {
	if p.staleCopies > 0 {
		return false
	}
	for _, f := range p.fresh {
		if !f {
			return false
		}
	}
	return true
}

// bystanderMean returns the mean bystander copies per key of the last
// observe pass.
func (p *scenarioProbe) bystanderMean() float64 {
	return float64(p.bystanders) / float64(len(p.anyHit))
}

// fractions returns the available-any and fresh fractions of the last
// observe pass.
func (p *scenarioProbe) fractions() (anyFrac, freshFrac float64) {
	var a, f int
	for i := range p.anyHit {
		if p.anyHit[i] {
			a++
		}
		if p.fresh[i] {
			f++
		}
	}
	n := float64(len(p.anyHit))
	return float64(a) / n, float64(f) / n
}

// meanHolders returns the mean alive keeper-replica count of the last
// observe pass (bystander copies are counted by bystanderMean, not here).
func (p *scenarioProbe) meanHolders() float64 {
	sum := 0
	for _, h := range p.holders {
		sum += h
	}
	return float64(sum) / float64(len(p.holders))
}

// RunScenario executes one fault scenario: settle, preload the key
// space, open the fault window under sustained writes, then measure the
// post-fault convergence. A run is four parts — the population under
// test, the client that issues the workload (recording or not), the
// fault schedule (applyEvents) and the probe that measures the stores
// between rounds — and the phases below drive them. All state flows from
// cfg.Seed; two calls with equal configs produce identical results at
// every worker count.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	pop := epidemicPopulation(sim.Config{Seed: cfg.Seed, Workers: cfg.Workers}, cfg.Nodes, epidemic.Config{
		Replication:      replication,
		FanoutC:          1,
		AntiEntropyEvery: 10,
		Repair:           repair.Config{Walks: 8, CheckEvery: 10, Grace: 8, OrphanBatch: 2},
	})
	net := pop.net
	defer net.Close()
	sc := sim.NewScenario(cfg.Seed ^ 0x5cee).Attach(net)
	probe := newScenarioProbe(cfg.Keys)
	load, err := newScenarioLoad(cfg, pop, probe)
	if err != nil {
		return nil, err
	}
	var client scenarioClient = randomClient{load}
	if cfg.RecordHistory {
		client = newRecordingClient(load)
	}

	var churns []*scheduledChurn
	step := func(writes, reads int) {
		for i := 0; i < writes; i++ {
			client.write(load.wrng.Intn(cfg.Keys))
		}
		for i := 0; i < reads; i++ {
			client.read()
		}
		for _, cc := range churns {
			cc.step(net.Round())
		}
		sc.Step()
		net.Step()
		client.settle()
	}

	start := time.Now()

	// Settle, then preload the whole key space and let it disseminate.
	for i := 0; i < cfg.Warmup; i++ {
		step(0, 0)
	}
	const preloadRounds = 16
	per := (cfg.Keys + preloadRounds - 1) / preloadRounds
	next := 0
	for next < cfg.Keys {
		for i := 0; i < per && next < cfg.Keys; i++ {
			client.write(next)
			next++
		}
		step(0, 0)
	}
	for i := 0; i < 15; i++ {
		step(0, 0)
	}

	// Schedule the fault window starting at the next round boundary. The
	// declarative event layer (faultspec.go) owns the Step-clock vs
	// message-clock end-round distinction; the catalogue schedules and
	// explicit cfg.Events (the fuzzer) compose the same primitives.
	events := cfg.Events
	if len(events) == 0 {
		events = catalogueEvents(cfg.Name, cfg.Nodes, cfg.FaultRounds)
	}
	churns = applyEvents(events, sc, net, net.Round(), cfg.FaultRounds, cfg.Seed, pop.ids, pop.join)

	// Fault window: sustained writes, oracle measurement every round.
	var sumAny, sumFresh, sumStale, sumStaleKeep float64
	for r := 0; r < cfg.FaultRounds; r++ {
		step(scenarioWritesPerRound, cfg.ReadsPerRound)
		probe.observe(net, pop.machines)
		a, f := probe.fractions()
		sumAny += a
		sumFresh += f
		sumStale += probe.staleFrac()
		sumStaleKeep += probe.staleKeeperFrac()
	}
	res := &ScenarioResult{
		Scenario:     cfg.Name,
		Nodes:        cfg.Nodes,
		Keys:         cfg.Keys,
		Workers:      max(cfg.Workers, 1),
		Seed:         cfg.Seed,
		AvailAny:     sumAny / float64(cfg.FaultRounds),
		AvailFresh:   sumFresh / float64(cfg.FaultRounds),
		StaleCopies:  sumStale / float64(cfg.FaultRounds),
		StaleKeepers: sumStaleKeep / float64(cfg.FaultRounds),
	}
	res.StalenessAtFaultEnd = probe.staleFrac()

	// Recovery: writes stop, reads continue to drive read-repair. Keeper
	// convergence — every key fresh-available, no responsible replica
	// serving old data — is recorded on the way; the run continues until
	// *full* convergence, which additionally requires every bystander
	// retention to be fresh (see fullConverged).
	res.RoundsToConverge = -1
	res.RoundsToFullConverge = -1
	for r := 1; r <= cfg.MaxRecovery; r++ {
		step(0, cfg.ReadsPerRound)
		probe.observe(net, pop.machines)
		if probe.fullConverged() {
			if res.RoundsToConverge < 0 {
				res.RoundsToConverge = r
				res.Converged = true
			}
			res.RoundsToFullConverge = r
			res.FullConverged = true
			break
		}
		if res.RoundsToConverge < 0 && probe.converged() {
			res.RoundsToConverge = r
			res.Converged = true
		}
	}
	res.MeanReplicasEnd = probe.meanHolders()
	res.BystanderCopiesEnd = probe.bystanderMean()

	// Idle tail: client-free rounds with only the background machinery
	// (gossip, anti-entropy, supersession) running, reported as counter
	// deltas. Runs after every headline metric is frozen; the fabric
	// accounting it adds (Sent/Delivered/...) is collected below and
	// folds into the digest, which stays deterministic — IdleTail is a
	// config knob like any other, and zero runs no tail at all.
	if cfg.IdleTail > 0 {
		idleCost := func(sign int64) {
			for _, en := range pop.machines {
				if en.Repair != nil {
					res.IdleTuplesPushed += sign * en.Repair.Pushed
				}
				ops, scanned, _ := en.St.ServeStats()
				res.IdleDigestServes += sign * ops
				res.IdleEntriesScanned += sign * scanned
			}
		}
		idleCost(-1)
		for r := 0; r < cfg.IdleTail; r++ {
			step(0, 0)
		}
		idleCost(1)
		res.IdleRounds = cfg.IdleTail
	}

	res.Rounds = int(net.Round()) // one round per step, from round 0
	res.ElapsedSeconds = time.Since(start).Seconds()
	t := tallyRun(pop)
	res.Sent, res.Delivered, res.LostLink, res.LostDead, res.LostFault = t.sent, t.delivered, t.lostLink, t.lostDead, t.lostFault
	res.AliveEnd, res.StoreDigest, res.GossipEvictions = t.aliveEnd, t.storeDigest, t.evictions
	res.DigestServes, res.DigestEntriesScanned, res.DigestBucketsFolded = t.serves, t.scanned, t.folded
	for _, en := range pop.machines {
		res.StoreEntries += int64(en.St.Total())
		if en.Repair != nil {
			res.SyncSegments += en.Repair.Segments
			res.TuplesPushed += en.Repair.Pushed
			res.BystandersSuperseded += en.Repair.Superseded
		}
		res.ReadRepairs += en.ReadRepairs
	}
	client.report(res)
	res.DigestHex = fmt.Sprintf("%016x", res.Digest())
	return res, nil
}

// collectReplicas snapshots the end-state replica map for the
// convergence oracle: every live copy of every tracked key across alive
// nodes plus the latest written version, swept in node order so the map
// is deterministic.
func collectReplicas(pop *population[*epidemic.Node], probe *scenarioProbe) []oracle.KeyReplicas {
	out := make([]oracle.KeyReplicas, len(probe.latest))
	for ki := range out {
		out[ki] = oracle.KeyReplicas{
			Key:    scenarioKey(ki),
			Latest: tuple.Version{Seq: probe.latest[ki], Writer: probe.writer[ki]},
		}
	}
	for _, en := range pop.machines {
		if !pop.net.Alive(en.Self) {
			continue
		}
		en.St.ForEachRef(func(t *tuple.Tuple) bool {
			if t.Deleted {
				return true
			}
			if ki, ok := probe.keyIdx[t.Key]; ok {
				out[ki].Copies = append(out[ki].Copies, oracle.ReplicaCopy{Node: en.Self, Version: t.Version})
			}
			return true
		})
	}
	return out
}
