package experiments

import (
	"math/rand"

	"datadroplets/internal/baseline"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
	"datadroplets/internal/workload"
)

func init() {
	register("C7", runC7)
	register("C8", runC8)
}

// epidemicPopulation is a persistent-layer population over a fabric of
// the given seed: the fixture of C7, C8 and simscale.
func epidemicPopulation(fabric sim.Config, n int, cfg epidemic.Config) *population[*epidemic.Node] {
	return newPopulation(fabric, n, func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *epidemic.Node {
		return epidemic.New(id, rng, view(), cfg)
	})
}

// writeVia hands t to node i mod population as a client write.
func writeVia(p *population[*epidemic.Node], i int, t *tuple.Tuple) {
	origin := p.machines[i%len(p.machines)]
	p.net.Emit(origin.Self, origin.Write(p.net.Round(), t))
}

// holders counts alive nodes storing a live copy of key.
func holders(p *population[*epidemic.Node], key string) int {
	c := 0
	for i, en := range p.machines {
		if p.net.Alive(p.ids[i]) {
			if _, ok := en.St.Get(key); ok {
				c++
			}
		}
	}
	return c
}

// runC7 tracks replica counts over time under churn with the redundancy
// manager on vs off, plus the grace-window ablation (§III-A).
func runC7(p Params) *Result {
	res := &Result{
		ID:    "C7",
		Title: "Redundancy maintenance under churn (repair on/off, grace window)",
	}
	n := p.scaled(300, 80)
	keys := p.scaled(100, 30)
	r := 4
	run := func(repairOn bool, grace int, preset workload.ChurnPreset) (mean0, meanEnd, lost float64, traffic int64) {
		cfg := epidemic.Config{
			Replication: r, FanoutC: 2, DisableRepair: !repairOn,
			Repair: repair.Config{CheckEvery: 5, Grace: grace, Walks: 48, TTL: 6, WaitRounds: 9},
		}
		f := epidemicPopulation(sim.Config{Seed: p.Seed + int64(grace)*3 + int64(len(preset))}, n, cfg)
		f.net.Run(30)
		for i := 0; i < keys; i++ {
			writeVia(f, i, &tuple.Tuple{Key: workload.Key(i), Value: []byte("v"), Version: tuple.Version{Seq: 1, Writer: 1}})
		}
		f.net.Run(20)
		var sum0 int
		for i := 0; i < keys; i++ {
			sum0 += holders(f, workload.Key(i))
		}
		cc := workload.ChurnConfig(preset)
		cc.Spawn = f.join
		cc.JoinPerRound = cc.PermanentPerRound * float64(n) // joins balance departures
		f.churn(cc, p.Seed+55, 150)
		var sumEnd, lostKeys int
		for i := 0; i < keys; i++ {
			h := holders(f, workload.Key(i))
			sumEnd += h
			if h == 0 {
				lostKeys++
			}
		}
		for _, en := range f.machines {
			if en.Repair != nil {
				traffic += en.Repair.Pushed + en.Repair.Handoffs
			}
		}
		return float64(sum0) / float64(keys), float64(sumEnd) / float64(keys),
			float64(lostKeys) / float64(keys), traffic
	}

	table := metrics.NewTable("replicas and loss after 150 churn rounds",
		"churn", "repair", "grace", "replicas t=0", "replicas t=150", "lost keys frac", "repair transfers")
	for _, preset := range []workload.ChurnPreset{workload.ChurnModerate, workload.ChurnHigh} {
		for _, on := range []bool{false, true} {
			m0, mEnd, lost, traffic := run(on, 15, preset)
			table.AddRow(string(preset), on, 15, m0, mEnd, lost, traffic)
		}
	}
	res.Tables = append(res.Tables, table)

	ablation := metrics.NewTable("grace-window ablation (transient churn, moderate)",
		"grace rounds", "repair transfers", "replicas t=150")
	for _, grace := range []int{1, 15, 40} {
		_, mEnd, _, traffic := run(true, grace, workload.ChurnModerate)
		ablation.AddRow(grace, traffic, mEnd)
	}
	res.Tables = append(res.Tables, ablation)
	res.Notes = append(res.Notes,
		"expected shape: without repair, permanent failures erode replicas toward loss; with repair, replicas hold near r",
		"expected shape: tiny grace windows over-repair transient reboots (more transfers for equal replicas) — the paper's relaxation argument")
	return res
}

// runC8 is the headline comparison: epidemic persistent layer vs the
// structured (Cassandra-style) baseline under increasing churn — data
// availability and repair traffic (§I and §III-A).
func runC8(p Params) *Result {
	res := &Result{
		ID:    "C8",
		Title: "Availability under churn: epidemic layer vs structured DHT baseline",
	}
	n := p.scaled(200, 60)
	keys := p.scaled(150, 40)
	r := 3
	detectLag := 10

	table := metrics.NewTable("availability and repair traffic vs churn",
		"churn", "system", "availability", "mean replicas", "repair transfers")
	for _, preset := range []workload.ChurnPreset{workload.ChurnNone, workload.ChurnLow, workload.ChurnModerate, workload.ChurnHigh} {
		// --- Epidemic system.
		ecfg := epidemic.Config{
			Replication: r, FanoutC: 2, AntiEntropyEvery: 10,
			Repair: repair.Config{CheckEvery: 5, Grace: 12, Walks: 48, TTL: 6, WaitRounds: 9},
		}
		ef := epidemicPopulation(sim.Config{Seed: p.Seed + int64(len(preset))}, n, ecfg)
		ef.net.Run(30)
		for i := 0; i < keys; i++ {
			writeVia(ef, i, &tuple.Tuple{Key: workload.Key(i), Value: []byte("v"), Version: tuple.Version{Seq: 1, Writer: 1}})
		}
		ef.net.Run(20)
		ecc := workload.ChurnConfig(preset)
		ecc.Spawn = ef.join
		ecc.JoinPerRound = ecc.PermanentPerRound * float64(n)
		ef.churn(ecc, p.Seed+1, 120)
		var avail, reps float64
		for i := 0; i < keys; i++ {
			h := holders(ef, workload.Key(i))
			if h > 0 {
				avail++
			}
			reps += float64(h)
		}
		var etraffic int64
		for _, en := range ef.machines {
			if en.Repair != nil {
				etraffic += en.Repair.Pushed + en.Repair.Handoffs
			}
		}
		table.AddRow(string(preset), "epidemic", avail/float64(keys), reps/float64(keys), etraffic)

		// --- Structured baseline.
		bnet := sim.New(sim.Config{Seed: p.Seed + int64(len(preset)) + 1000})
		provider := baseline.NewDelayedViewProvider(detectLag)
		bcfg := baseline.Config{Replicas: r, Vnodes: 16, CheckEvery: 5, View: provider.View}
		bnodes := make(map[node.ID]*baseline.Node, n)
		bjoin := func(id node.ID, rng *rand.Rand) sim.Machine {
			bnodes[id] = baseline.New(id, rng, bcfg)
			return bnodes[id]
		}
		bnet.SpawnN(n, bjoin)
		step := func() {
			provider.Record(bnet.AliveIDs())
			bnet.Step()
		}
		for i := 0; i < 5; i++ {
			step()
		}
		for i := 0; i < keys; i++ {
			coord := bnodes[node.ID(i%n+1)]
			bnet.Emit(node.ID(i%n+1), coord.Put(bnet.Round(), &tuple.Tuple{
				Key: workload.Key(i), Value: []byte("v"), Version: tuple.Version{Seq: 1, Writer: 1},
			}))
		}
		for i := 0; i < 10; i++ {
			step()
		}
		bcc := workload.ChurnConfig(preset)
		bcc.Spawn = bjoin
		bcc.JoinPerRound = bcc.PermanentPerRound * float64(n)
		bch := sim.NewChurner(bnet, bcc, p.Seed+2)
		for i := 0; i < 120; i++ {
			bch.Step()
			step()
		}
		var bavail, breps float64
		for i := 0; i < keys; i++ {
			h := 0
			for id, bn := range bnodes {
				if bnet.Alive(id) && bn.Has(workload.Key(i)) {
					h++
				}
			}
			if h > 0 {
				bavail++
			}
			breps += float64(h)
		}
		var btraffic int64
		for _, bn := range bnodes {
			btraffic += bn.Transferred
		}
		table.AddRow(string(preset), "baseline", bavail/float64(keys), breps/float64(keys), btraffic)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expected shape: both near 1.0 availability at low churn; as churn rises the baseline's availability degrades (detection lag + reactive streaming) while its repair traffic grows with churn",
		"the epidemic layer masks transient failures (anti-entropy + grace) and keeps traffic flatter — the paper's core architectural claim")
	return res
}
