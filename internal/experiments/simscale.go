package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// SimScaleConfig drives the paper-scale fabric benchmark: a persistent
// epidemic cluster pushed through a sustained write + churn + repair
// workload. It doubles as the fixture of the determinism golden test, so
// every knob must feed only seeded randomness.
type SimScaleConfig struct {
	// Nodes is the persistent-layer population (the paper states its
	// claims for 10^4–10^5).
	Nodes int
	// Rounds is how many gossip rounds to run after warmup.
	Rounds int
	// Warmup rounds let size estimation settle before measurement.
	Warmup int
	// Seed feeds the fabric, every node machine, the churner and the
	// workload generator.
	Seed int64
	// WritesPerRound is the sustained write load.
	WritesPerRound int
	// Keys bounds the key space (keys are reused round-robin so LWW
	// versioning and re-dissemination are exercised). Zero means
	// 4*Nodes.
	Keys int
	// TransientPerRound / PermanentPerRound / MeanDowntime parameterise
	// churn (per alive node per round).
	TransientPerRound float64
	PermanentPerRound float64
	MeanDowntime      float64
	// AggregateAttr, when non-empty, enables continuous push-sum
	// aggregation and KMV distribution estimation over that attribute,
	// and with them the per-epoch passes over every local store.
	AggregateAttr string
	// Workers shards the fabric's compute phase (sim.Config.Workers).
	// The trace — and therefore the Digest — is byte-identical at every
	// setting; only wall-clock changes. Zero/one means serial.
	Workers int
}

func (c SimScaleConfig) normalized() SimScaleConfig {
	if c.Keys <= 0 {
		c.Keys = 4 * c.Nodes
	}
	if c.MeanDowntime <= 0 {
		c.MeanDowntime = 10
	}
	return c
}

// SimScaleResult reports one simscale run. The digest fields capture the
// complete observable behaviour of the run (fabric accounting plus every
// node's store content), which is what the determinism contract promises
// to preserve byte-for-byte across same-seed runs and across scheduler /
// storage refactors.
type SimScaleResult struct {
	Nodes   int `json:"nodes"`
	Rounds  int `json:"rounds"`
	Workers int `json:"workers"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	SecondsPerRnd  float64 `json:"seconds_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`

	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	LostLink  int64 `json:"lost_link"`
	LostDead  int64 `json:"lost_dead"`

	StoreDigest uint64 `json:"store_digest"`
	StoredTotal int64  `json:"stored_total"`
	TuplesTotal int    `json:"tuples_total"`
	AliveEnd    int    `json:"alive_end"`

	// Digest-serve cost summed across nodes (store.ServeStats): arc-query
	// ops triggered by the run's repair traffic, entries scanned one by
	// one in partial index buckets, whole buckets folded. Cost accounting
	// only — excluded from Digest so serving-strategy changes cannot
	// invalidate committed golden digests.
	DigestServes         int64 `json:"digest_serves"`
	DigestEntriesScanned int64 `json:"digest_entries_scanned"`
	DigestBucketsFolded  int64 `json:"digest_buckets_folded"`

	// GossipEvictions sums the payloads every node's gossip cache dropped
	// to its byte budget; the tests assert 0 (see ScenarioResult).
	GossipEvictions int64 `json:"-"`

	// Per-node end state (ID order), for granular determinism checks.
	NodeDigests []uint64 `json:"-"`
	NodeStored  []int64  `json:"-"`

	// DigestHex is Digest() as the report row carries it.
	DigestHex string `json:"digest"`
}

// mix is the shared digest-folding primitive of the benchmark results
// (SimScaleResult, ScenarioResult). Committed golden digests depend on
// it; changing it invalidates them all at once, by design.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// Digest folds the run's observable behaviour into one 64-bit value for
// golden-test comparison.
func (r *SimScaleResult) Digest() uint64 {
	h := uint64(0x8000000000000001)
	h = mix(h, uint64(r.Sent))
	h = mix(h, uint64(r.Delivered))
	h = mix(h, uint64(r.LostLink))
	h = mix(h, uint64(r.LostDead))
	h = mix(h, r.StoreDigest)
	h = mix(h, uint64(r.StoredTotal))
	h = mix(h, uint64(r.TuplesTotal))
	h = mix(h, uint64(r.AliveEnd))
	return h
}

// String renders the headline numbers.
func (r *SimScaleResult) String() string {
	return fmt.Sprintf("simscale N=%d rounds=%d W=%d %.2fs (%.1f rounds/sec, %.0f allocs/round) sent=%d delivered=%d digest=%016x",
		r.Nodes, r.Rounds, r.Workers, r.ElapsedSeconds, r.RoundsPerSec, r.AllocsPerRound, r.Sent, r.Delivered, r.Digest())
}

// RunSimScale builds the cluster, applies warmup, then measures Rounds
// rounds of writes + churn + repair. All state flows from cfg.Seed: two
// calls with equal configs must produce identical results (the
// determinism tests rely on it).
func RunSimScale(cfg SimScaleConfig) *SimScaleResult {
	cfg = cfg.normalized()

	// Repair stays on (deficit checks, orphan sweeps, range sync) but at
	// a lighter cadence than the protocol defaults: the defaults target
	// small-population experiments, and at 10^4 nodes 32 walks every 10
	// rounds per node is pure walk traffic drowning the workload signal.
	ecfg := epidemic.Config{
		Replication: replication,
		FanoutC:     1,
		Repair: repair.Config{
			Walks:       8,
			CheckEvery:  20,
			OrphanBatch: 2,
		},
	}
	if cfg.AggregateAttr != "" {
		ecfg.AggregateAttrs = []string{cfg.AggregateAttr}
		ecfg.EstimateAttr = cfg.AggregateAttr
	}

	pop := epidemicPopulation(sim.Config{Seed: cfg.Seed, Workers: cfg.Workers}, cfg.Nodes, ecfg)
	net := pop.net
	defer net.Close()

	churner := sim.NewChurner(net, sim.ChurnConfig{
		TransientPerRound: cfg.TransientPerRound,
		PermanentPerRound: cfg.PermanentPerRound,
		MeanDowntime:      cfg.MeanDowntime,
	}, cfg.Seed^0x5ca1ab1e)

	wrng := rand.New(rand.NewSource(cfg.Seed ^ 0x77aa77aa))
	versions := make([]uint64, cfg.Keys)
	value := make([]byte, 64)
	for i := range value {
		value[i] = byte(i)
	}
	writeOne := func() {
		origin, ok := randomAlive(net, wrng)
		if !ok {
			return
		}
		ki := wrng.Intn(cfg.Keys)
		versions[ki]++
		t := &tuple.Tuple{
			Key:     fmt.Sprintf("key-%06d", ki),
			Value:   value,
			Attrs:   map[string]float64{"v": float64(wrng.Intn(1000))},
			Version: tuple.Version{Seq: versions[ki], Writer: origin},
		}
		net.Emit(origin, pop.machines[origin-1].Write(net.Round(), t))
	}

	step := func() {
		for i := 0; i < cfg.WritesPerRound; i++ {
			writeOne()
		}
		churner.Step()
		net.Step()
	}

	for i := 0; i < cfg.Warmup; i++ {
		step()
	}

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i := 0; i < cfg.Rounds; i++ {
		step()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	t := tallyRun(pop)
	res := &SimScaleResult{
		Nodes:          cfg.Nodes,
		Rounds:         cfg.Rounds,
		Workers:        max(cfg.Workers, 1),
		ElapsedSeconds: elapsed.Seconds(),
		RoundsPerSec:   float64(cfg.Rounds) / elapsed.Seconds(),
		SecondsPerRnd:  elapsed.Seconds() / float64(cfg.Rounds),
		AllocsPerRound: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(cfg.Rounds),
		BytesPerRound:  float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(cfg.Rounds),
		NodeDigests:    t.nodeDigests,
		NodeStored:     make([]int64, len(pop.machines)),
	}
	res.Sent, res.Delivered, res.LostLink, res.LostDead, res.AliveEnd = t.sent, t.delivered, t.lostLink, t.lostDead, t.aliveEnd
	res.StoreDigest, res.GossipEvictions = t.storeDigest, t.evictions
	res.DigestServes, res.DigestEntriesScanned, res.DigestBucketsFolded = t.serves, t.scanned, t.folded
	for i, en := range pop.machines {
		res.NodeStored[i] = en.Stored
		res.StoredTotal += en.Stored
		res.TuplesTotal += en.St.Total()
	}
	res.DigestHex = fmt.Sprintf("%016x", res.Digest())
	return res
}

// runTally is the end-of-run accounting RunSimScale and RunScenario
// share: the fabric's counters, every node's digest-serve cost and store
// content, and the gossip payloads evicted to the byte budget. Each
// result copies it into its own fields, whose JSON tags differ
// (store_digest is a row field of one and hidden in the other).
type runTally struct {
	sent, delivered, lostLink, lostDead, lostFault int64
	aliveEnd                                       int
	serves, scanned, folded, evictions             int64
	storeDigest                                    uint64
	nodeDigests                                    []uint64 // per node, in ID order
}

func tallyRun(pop *population[*epidemic.Node]) runTally {
	net := pop.net
	t := runTally{
		sent:        net.Stats.Sent.Value(),
		delivered:   net.Stats.Delivered.Value(),
		lostLink:    net.Stats.LostLink.Value(),
		lostDead:    net.Stats.LostDead.Value(),
		lostFault:   net.Stats.LostFault.Value(),
		aliveEnd:    net.Size(),
		nodeDigests: make([]uint64, len(pop.machines)),
	}
	full := node.FullArc()
	for i, en := range pop.machines {
		// Serve stats first: the digest fold below is itself an arc query
		// and must not count toward the run's serving cost.
		ops, scanned, folded := en.St.ServeStats()
		t.serves += ops
		t.scanned += scanned
		t.folded += folded
		t.evictions += en.Diss.Evicted
		d := en.St.DigestArc(full)
		t.nodeDigests[i] = d
		// Fold node position in so per-node digests cannot cancel by
		// permutation.
		t.storeDigest ^= d * (uint64(i)*2 + 1)
	}
	return t
}
