package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/experiments"
	"datadroplets/internal/gossip"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/store"
	"datadroplets/internal/transport"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// layerProbes are the outside-in probes of a traced run: each times
// calls into one layer's public functions on inputs sized like the
// workload's, with no server around them. README.md says which
// end-to-end metric each is expected to move.
func layerProbes(w workload, seed int64, tr *tracer, res *runResult, sz probeSizes) error {
	rng := rand.New(rand.NewSource(seed ^ 0x6c61796572))
	p := &prober{w: w, sz: sz, rng: rng, tr: tr, out: res.layer, ks: newKeyset(seed, w.keys)}
	p.wireProbes()
	p.tupleProbes()
	st := p.storeProbes()
	p.coreProbes(st)
	p.epidemicProbes()
	p.gossipProbes()
	if err := p.transportProbes(); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	return p.simProbes(seed, res)
}

// probeSizes scales the probes: div divides every timing loop's
// iteration count, the rest size the simulator runs.
type probeSizes struct {
	div                                           int
	simNodes, simRounds, simWarmup, scenarioNodes int
}

// fullProbes are the sizes of a real traced run. The simulator sizes
// are far below the paper-scale runs of cmd/ddbench so that a traced
// run stays about as short as an untraced one.
var fullProbes = probeSizes{div: 1, simNodes: 500, simRounds: 60, simWarmup: 30, scenarioNodes: 120}

type prober struct {
	w   workload
	sz  probeSizes
	rng *rand.Rand
	tr  *tracer
	out map[string]metric
	ks  *keyset
}

// probeReps is how often a timing probe repeats; the fastest repeat is
// reported: a probe is a single-threaded loop over one layer's code, on
// which host noise only ever adds time.
const probeReps = 3

// timed runs fn(i) for i in [0,n) probeReps times under one span and
// returns the best ns per call and the allocations per call.
func (p *prober) timed(name string, n int, fn func(i int)) (ns, allocs float64) {
	n = max(1, n/p.sz.div)
	ns = math.Inf(1)
	p.tr.probe(name, func() {
		for rep := 0; rep < probeReps; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn(rep*n + i)
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			ns = math.Min(ns, float64(d.Nanoseconds())/float64(n))
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	})
	return ns, allocs
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

func (p *prober) tupleFor(k int, valueLen int, seq uint64) *tuple.Tuple {
	v := make([]byte, valueLen)
	fillValue(v, p.ks.hashes[k], probeWriter, seq)
	return &tuple.Tuple{Key: p.ks.names[k], Value: v, Version: tuple.Version{Seq: seq, Writer: 1}}
}

// wireProbes: one DDB1 request (a 128 B Put) and its response, encoded
// and decoded through bufio as both ends of a connection do.
func (p *prober) wireProbes() {
	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	req := wire.Request{Op: wire.OpPut, Key: p.ks.names[0], Value: make([]byte, 128)}
	var gotReq wire.Request
	ns, allocs := p.timed("wire.req_codec_ns", 200000, func(int) {
		_ = wire.EncodeRequest(bw, &req)
		_ = bw.Flush()
		_ = wire.DecodeRequest(br, &gotReq)
	})
	p.set("wire.req_codec_ns", ns, "ns")
	p.set("wire.req_allocs", allocs, "count")
	resp := wire.Response{Status: wire.StatusValue, Payload: make([]byte, 128)}
	var gotResp wire.Response
	ns, _ = p.timed("wire.resp_codec_ns", 200000, func(int) {
		_ = wire.EncodeResponse(bw, &resp)
		_ = bw.Flush()
		_ = wire.DecodeResponse(br, &gotResp)
	})
	p.set("wire.resp_codec_ns", ns, "ns")
}

// tupleProbes: the tuple codec on a 1 KiB value, the unit the fabric
// ships for every write.
func (p *prober) tupleProbes() {
	t := p.tupleFor(0, 1024, 1)
	var enc []byte
	ns, allocs := p.timed("tuple.marshal_ns", 200000, func(int) { enc = tuple.Marshal(t) })
	p.set("tuple.marshal_ns", ns, "ns")
	p.set("tuple.marshal_allocs", allocs, "count")
	ns, _ = p.timed("tuple.unmarshal_ns", 200000, func(int) { _, _, _ = tuple.Unmarshal(enc) })
	p.set("tuple.unmarshal_ns", ns, "ns")
}

// storeProbes: the local store holding the workload's key count. The
// arc scans cover a sixteenth of the ring, as a repair exchange does.
func (p *prober) storeProbes() *store.Store {
	st := store.New(rand.New(rand.NewSource(p.rng.Int63())))
	for k := range p.ks.names {
		st.Apply(p.tupleFor(k, p.w.valueLen, 1))
	}
	n := len(p.ks.names)
	ns, _ := p.timed("store.get_ns", 200000, func(i int) { st.Get(p.ks.names[i*7919%n]) })
	p.set("store.get_ns", ns, "ns")

	fresh := max(1, 20000/p.sz.div)
	newTuples := make([]*tuple.Tuple, probeReps*fresh)
	for i := range newTuples {
		newTuples[i] = &tuple.Tuple{Key: fmt.Sprintf("probe/new%07d", i), Value: make([]byte, p.w.valueLen), Version: tuple.Version{Seq: 1, Writer: 1}}
	}
	ns, _ = p.timed("store.apply_new_ns", fresh*p.sz.div, func(i int) { st.Apply(newTuples[i]) })
	p.set("store.apply_new_ns", ns, "ns")
	over := p.tupleFor(0, p.w.valueLen, 0)
	ns, _ = p.timed("store.apply_overwrite_ns", 100000, func(i int) {
		k := i * 7919 % n
		over.Key, over.Version.Seq = p.ks.names[k], uint64(i+2)
		st.Apply(over)
	})
	p.set("store.apply_overwrite_ns", ns, "ns")

	arc := func(i int) node.Arc {
		return node.ArcFromFraction(node.Point(uint64(i)*0x9e3779b97f4a7c15), 1.0/16)
	}
	ns, _ = p.timed("store.digest_arc_us", 200, func(i int) { st.DigestArc(arc(i)) })
	p.set("store.digest_arc_us", ns/1e3, "us")
	ns, _ = p.timed("store.versions_in_arc_us", 50, func(i int) { st.VersionsInArc(arc(i)) })
	p.set("store.versions_in_arc_us", ns/1e3, "us")
	return st
}

func (p *prober) view(self node.ID, members int) *membership.UniformView {
	ids := make([]node.ID, members)
	for i := range ids {
		ids[i] = node.ID(i + 1)
	}
	return membership.NewUniformView(self, rand.New(rand.NewSource(p.rng.Int63())), func() []node.ID { return ids })
}

// coreProbes: the soft-state node called directly, with LocalRead wired
// to the store as the server wires it.
func (p *prober) coreProbes(st *store.Store) {
	soft := core.NewSoftNode(1, rand.New(rand.NewSource(p.rng.Int63())), p.view(1, p.w.nodes), core.SoftConfig{})
	soft.LocalRead = st.Get
	n := len(p.ks.names)
	value := make([]byte, p.w.putLen)
	ns, _ := p.timed("core.put_ns", 100000, func(i int) {
		id, _ := soft.Put(1, p.ks.names[i*7919%n], value, nil, nil, false)
		soft.ForgetOp(id)
	})
	p.set("core.put_ns", ns, "ns")
	// The last Put's key is in the tuple cache at the version the
	// sequencer knows: a Get of it is the cache path.
	hot := p.ks.names[0]
	id, _ := soft.Put(1, hot, value, nil, nil, false)
	soft.ForgetOp(id)
	ns, _ = p.timed("core.get_cache_ns", 200000, func(int) {
		id, _ := soft.Get(1, hot)
		soft.ForgetOp(id)
	})
	p.set("core.get_cache_ns", ns, "ns")
	// A fresh node that has only observed the store's versions (what
	// the server's pre-op sync does) has nothing cached: its Gets take
	// the LocalRead path.
	cold := core.NewSoftNode(1, rand.New(rand.NewSource(p.rng.Int63())), p.view(1, p.w.nodes), core.SoftConfig{})
	cold.LocalRead = st.Get
	for _, name := range p.ks.names {
		cold.Seq.Observe(name, st.Version(name))
	}
	ns, _ = p.timed("core.get_local_ns", 200000, func(i int) {
		id, _ := cold.Get(1, p.ks.names[i*7919%n])
		cold.ForgetOp(id)
	})
	p.set("core.get_local_ns", ns, "ns")
	if cold.LocalReads == 0 || soft.CacheHits == 0 {
		// The probes would be timing some other path than they name.
		p.set("core.get_local_ns", math.NaN(), "ns")
	}
}

// epidemicProbes: one persistent node configured as the server
// configures it, holding the workload's key count, with nobody
// answering. It is ticked first, so the ticks cost what the store's
// size makes them cost (gossip.tick_ns has the seen-table's share),
// then written to.
func (p *prober) epidemicProbes() {
	en := epidemic.New(1, rand.New(rand.NewSource(p.rng.Int63())), p.view(1, p.w.nodes), epidemic.Config{
		Replication: p.w.replication, FanoutC: 2, AntiEntropyEvery: 10,
	})
	en.Start(0)
	for k := range p.ks.names {
		en.St.Apply(p.tupleFor(k, p.w.valueLen, 1))
	}
	ticks := make([]int64, 0, 100)
	p.tr.probe("epidemic.tick_p50_us", func() {
		for r := 1; r <= 100; r++ {
			t0 := time.Now()
			en.Tick(sim.Round(r))
			ticks = append(ticks, int64(time.Since(t0)))
		}
	})
	slices.Sort(ticks)
	p.set("epidemic.tick_p50_us", float64(quantile(ticks, 0.5))/1e3, "us")
	p.set("epidemic.tick_max_us", float64(ticks[len(ticks)-1])/1e3, "us")
	n := len(p.ks.names)
	envs := 0
	writes := 0
	ns, _ := p.timed("epidemic.write_ns", 20000, func(i int) {
		envs += len(en.WriteFrom(1, 1, p.tupleFor(i*7919%n, p.w.putLen, uint64(i+2))))
		writes++
	})
	p.set("epidemic.write_ns", ns, "ns")
	p.set("epidemic.envs_per_write", float64(envs)/float64(writes), "count")
}

// gossipProbes: the disseminator alone.
func (p *prober) gossipProbes() {
	d := gossip.New(1, rand.New(rand.NewSource(p.rng.Int63())), p.view(1, p.w.nodes), gossip.Config{
		Fanout:           gossip.FixedFanout(3),
		OnDeliver:        func(gossip.Rumor) {},
		AntiEntropyEvery: 10,
	})
	payload := epidemic.WritePayload{Tuple: p.tupleFor(0, p.w.putLen, 1), Origin: 1, Entry: 1}
	ns, _ := p.timed("gossip.publish_ns", 20000, func(int) { d.Publish(1, payload) })
	p.set("gossip.publish_ns", ns, "ns")
	// Ticks over the seen-table those publishes filled; every tenth one
	// builds an anti-entropy digest of it.
	ns, _ = p.timed("gossip.tick_ns", 50, func(i int) { d.Tick(sim.Round(i + 2)) })
	p.set("gossip.tick_ns", ns, "ns")
}

// echo is the transport probe's machine: node 2 returns every rumor to
// its sender, node 1 reports each one that came back.
type echo struct {
	self node.ID
	back chan struct{}
}

func (e *echo) Start(sim.Round) []sim.Envelope { return nil }
func (e *echo) Tick(sim.Round) []sim.Envelope  { return nil }
func (e *echo) Handle(_ sim.Round, from node.ID, msg any) []sim.Envelope {
	if e.self == 2 {
		return []sim.Envelope{{To: from, Msg: msg}}
	}
	e.back <- struct{}{}
	return nil
}

// startEchoPair starts two hosts on fresh loopback addresses, each
// running an echo machine.
func startEchoPair(back chan struct{}) ([]*transport.Host, error) {
	peers, err := loopbackPeers(2)
	if err != nil {
		return nil, err
	}
	hosts := make([]*transport.Host, 2)
	for i := range hosts {
		h, err := transport.NewHost(transport.Config{Self: peers[i].ID, Peers: peers}, &echo{self: peers[i].ID, back: back})
		if err == nil {
			err = h.Start()
		}
		if err != nil {
			for _, started := range hosts[:i] {
				started.Stop()
			}
			return nil, err
		}
		hosts[i] = h
	}
	return hosts, nil
}

// transportProbes: two hosts on loopback. A rumor carrying a 1 KiB
// tuple is the only handle the outside has on the unexported DDN1
// codec: every echo is one encode and one decode each way.
func (p *prober) transportProbes() error {
	const burst = 1000
	// Echoes of a whole burst may arrive before the prober reads any.
	back := make(chan struct{}, burst)
	var hosts []*transport.Host
	var err error
	for attempt := 0; attempt < 5 && hosts == nil; attempt++ { // see bootCluster
		hosts, err = startEchoPair(back)
	}
	if err != nil {
		return err
	}
	defer hosts[0].Stop()
	defer hosts[1].Stop()
	a := hosts[0]

	ran := make(chan struct{})
	ns, _ := p.timed("transport.post_ns", 20000, func(int) {
		_ = a.Post(func(sim.Machine, sim.Round) []sim.Envelope { ran <- struct{}{}; return nil })
		<-ran
	})
	p.set("transport.post_ns", ns, "ns")

	msg := gossip.RumorMsg{Rumor: gossip.Rumor{ID: 1, Payload: epidemic.WritePayload{Tuple: p.tupleFor(0, 1024, 1), Origin: 1, Entry: 1}}}
	send := func(n int) {
		_ = a.Post(func(sim.Machine, sim.Round) []sim.Envelope {
			envs := make([]sim.Envelope, n)
			for i := range envs {
				envs[i] = sim.Envelope{To: 2, Msg: msg}
			}
			return envs
		})
	}
	await := func(n int) error {
		timeout := time.After(10 * time.Second)
		for ; n > 0; n-- {
			select {
			case <-back:
			case <-timeout:
				return fmt.Errorf("%d echoes missing after 10s", n)
			}
		}
		return nil
	}
	send(1) // the first message dials
	if err := await(1); err != nil {
		return err
	}
	ns, _ = p.timed("transport.echo_rtt_us", 2000, func(int) {
		if err == nil {
			send(1)
			err = await(1)
		}
	})
	if err != nil {
		return err
	}
	p.set("transport.echo_rtt_us", ns/1e3, "us")
	ns, _ = p.timed("transport.stream_msgs_s", 20, func(int) {
		if err == nil {
			send(burst)
			err = await(burst)
		}
	})
	if err != nil {
		return err
	}
	p.set("transport.stream_msgs_s", burst/(ns/1e9), "1/s")
	return nil
}

// simProbes: the deterministic simulator driving the same protocol
// code. Two same-seed RunSimScale repeats give the simulator's speed
// and check its determinism; the five fault scenarios, in the shipped
// default repair mode, give convergence and repair traffic.
func (p *prober) simProbes(seed int64, res *runResult) error {
	cfg := experiments.SimScaleConfig{
		Nodes: p.sz.simNodes, Rounds: p.sz.simRounds, Warmup: p.sz.simWarmup, Seed: seed,
		WritesPerRound: 16, TransientPerRound: 0.002, PermanentPerRound: 0.0002, Workers: 1,
	}
	var runs [2]*experiments.SimScaleResult
	p.tr.probe("sim.rounds_s", func() {
		for i := range runs {
			runs[i] = experiments.RunSimScale(cfg)
		}
	})
	fast := runs[0]
	if runs[1].RoundsPerSec > fast.RoundsPerSec {
		fast = runs[1]
	}
	equal := 1.0
	if runs[0].Digest() != runs[1].Digest() {
		equal = 0
		res.violate("simulator: two RunSimScale runs with seed %d differ: digests %016x and %016x", seed, runs[0].Digest(), runs[1].Digest())
	}
	p.set("sim.rounds_s", fast.RoundsPerSec, "1/s")
	p.set("sim.sec_per_round", fast.SecondsPerRnd, "s")
	p.set("sim.msgs_per_round", float64(fast.Sent)/float64(fast.Rounds), "count")
	p.set("sim.allocs_per_round", fast.AllocsPerRound, "count")
	p.set("sim.bytes_per_round", fast.BytesPerRound, "B")
	p.set("sim.digest_equal", equal, "count")

	var pushed, scanned, segments int64
	convergeRounds := 0
	availFresh := 1.0
	var unconverged []string
	t0 := time.Now()
	var scenErr error
	p.tr.probe("sim.scenario_wall_s", func() {
		for _, name := range experiments.ScenarioNames() {
			r, err := experiments.RunScenario(experiments.ScenarioConfig{Name: name, Nodes: p.sz.scenarioNodes, Seed: seed})
			if err != nil {
				scenErr = err
				return
			}
			pushed += r.TuplesPushed
			scanned += r.DigestEntriesScanned
			segments += r.SyncSegments
			availFresh = math.Min(availFresh, r.AvailFresh)
			if r.Converged {
				convergeRounds += r.RoundsToConverge
			} else {
				// Never converged: the whole recovery budget (the
				// default MaxRecovery) was spent.
				convergeRounds += 800
				unconverged = append(unconverged, name)
			}
		}
	})
	if scenErr != nil {
		return fmt.Errorf("scenario probe: %w", scenErr)
	}
	p.set("sim.scenario_wall_s", time.Since(t0).Seconds(), "s")
	p.set("sim.converge_rounds", float64(convergeRounds), "count")
	p.set("sim.avail_fresh_min", availFresh, "share")
	p.set("repair.tuples_pushed", float64(pushed), "count")
	p.set("repair.digest_entries_scanned", float64(scanned), "count")
	p.set("repair.sync_segments", float64(segments), "count")
	if len(unconverged) > 0 {
		res.notef("scenarios not converged within the default recovery budget at seed %d: %v", seed, unconverged)
	}
	return nil
}
