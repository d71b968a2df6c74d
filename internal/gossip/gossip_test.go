package gossip

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/wire"
)

// cluster wires n Disseminators over a UniformView of the population.
type cluster struct {
	net      *sim.Network
	ids      []node.ID
	machines map[node.ID]*Disseminator
}

func newCluster(n int, seed int64, cfg Config) *cluster {
	c := &cluster{
		net:      sim.New(sim.Config{Seed: seed}),
		machines: make(map[node.ID]*Disseminator, n),
	}
	ids := make([]node.ID, n)
	for i := range ids {
		ids[i] = node.ID(i + 1)
	}
	c.ids = ids
	pop := func() []node.ID { return ids }
	for i := 0; i < n; i++ {
		c.net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			d := New(id, rng, membership.NewUniformView(id, rng, pop), cfg)
			c.machines[id] = d
			return d
		})
	}
	return c
}

func (c *cluster) infected(id uint64) int {
	n := 0
	for _, d := range c.machines {
		if d.Seen(id) {
			n++
		}
	}
	return n
}

func TestPublishDeliversLocally(t *testing.T) {
	delivered := 0
	cfg := Config{Fanout: FixedFanout(3), OnDeliver: func(r Rumor) { delivered++ }}
	c := newCluster(10, 1, cfg)
	d := c.machines[1]
	id, envs := d.Publish(0, "payload")
	if delivered == 0 {
		t.Fatal("publisher did not deliver its own rumor")
	}
	if !d.Seen(id) {
		t.Fatal("publisher does not mark rumor seen")
	}
	if len(envs) != 3 {
		t.Fatalf("initial relays = %d, want 3", len(envs))
	}
}

func TestInfectionSpreadsWithHealthyFanout(t *testing.T) {
	const n = 2000
	cfg := Config{Fanout: FixedFanout(math.Log(n) + 3)}
	c := newCluster(n, 7, cfg)
	d := c.machines[1]
	id, envs := d.Publish(c.net.Round(), "x")
	c.net.Emit(1, envs)
	c.net.Quiesce(50)
	got := c.infected(id)
	// P(atomic) at c=3 is e^(-e^-3) ≈ 0.951; even a non-atomic outcome
	// reaches all but a handful of nodes.
	if got < n-10 {
		t.Fatalf("infected %d of %d with fanout ln(n)+3", got, n)
	}
}

func TestSubcriticalFanoutDiesOut(t *testing.T) {
	const n = 2000
	cfg := Config{Fanout: FixedFanout(0.5)}
	c := newCluster(n, 9, cfg)
	id, envs := c.machines[1].Publish(c.net.Round(), "x")
	c.net.Emit(1, envs)
	c.net.Quiesce(200)
	got := c.infected(id)
	// Sub-critical branching process: expected total infections are tiny.
	if got > n/10 {
		t.Fatalf("infected %d of %d with fanout 0.5, expected die-out", got, n)
	}
}

func TestDuplicatesSuppressed(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(2)}
	c := newCluster(50, 11, cfg)
	id, envs := c.machines[1].Publish(c.net.Round(), "x")
	c.net.Emit(1, envs)
	c.net.Quiesce(50)
	for _, d := range c.machines {
		if d.Delivered > 1 {
			t.Fatalf("node delivered rumor %d times", d.Delivered)
		}
	}
	_ = id
}

func TestHopsIncrease(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(4)}
	c := newCluster(500, 13, cfg)
	id, envs := c.machines[1].Publish(c.net.Round(), "x")
	c.net.Emit(1, envs)
	c.net.Quiesce(50)
	if h := c.machines[1].HopsOf(id); h != 0 {
		t.Fatalf("publisher hops = %d, want 0", h)
	}
	maxHops := 0
	for _, d := range c.machines {
		if h := d.HopsOf(id); h > maxHops {
			maxHops = h
		}
	}
	if maxHops < 2 {
		t.Fatalf("max hops = %d, expected multi-hop spread", maxHops)
	}
	// Expected infection time is O(log n); allow slack but catch blowups.
	if maxHops > 40 {
		t.Fatalf("max hops = %d, spread took too long", maxHops)
	}
}

func TestAntiEntropyRecoversMissedRumor(t *testing.T) {
	const n = 40
	cfg := Config{Fanout: FixedFanout(3), AntiEntropyEvery: 2}
	c := newCluster(n, 17, cfg)
	// Take node 40 down, disseminate, bring it back: only anti-entropy
	// can deliver the rumor to it.
	c.net.Kill(40, false)
	id, envs := c.machines[1].Publish(c.net.Round(), "x")
	c.net.Emit(1, envs)
	c.net.Quiesce(30)
	if c.machines[40].Seen(id) {
		t.Fatal("dead node saw the rumor")
	}
	c.net.Revive(40)
	c.net.Run(20)
	if !c.machines[40].Seen(id) {
		t.Fatal("anti-entropy did not recover the rumor after revival")
	}
}

func TestRetentionPrunes(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(0), Retention: 5}
	c := newCluster(2, 19, cfg)
	d := c.machines[1]
	id, _ := d.Publish(c.net.Round(), "x")
	c.net.Run(10)
	if d.Seen(id) {
		t.Fatal("rumor survived past retention window")
	}
}

func TestFanoutLnN(t *testing.T) {
	f := FanoutLnN(func() float64 { return 50000 }, 7)
	got := f()
	want := math.Log(50000) + 7
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fanout = %v, want %v", got, want)
	}
	if got < 17.8 || got > 17.9 {
		t.Fatalf("paper's worked example: ln(50000)+7 = %v, expected ≈17.82 (≈18 relays)", got)
	}
	// Degenerate size estimates must not produce negative or NaN fanout.
	if f2 := FanoutLnN(func() float64 { return 0 }, -5)(); f2 != 0 {
		t.Fatalf("clamped fanout = %v, want 0", f2)
	}
}

func TestFractionalFanoutExpectation(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(2.5)}
	c := newCluster(100, 23, cfg)
	d := c.machines[1]
	total := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		_, envs := d.Publish(c.net.Round(), i)
		total += len(envs)
	}
	mean := float64(total) / trials
	if mean < 2.3 || mean > 2.7 {
		t.Fatalf("mean relays = %v, want ≈2.5", mean)
	}
}

func TestRumorIDsUnique(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(0)}
	c := newCluster(3, 29, cfg)
	seen := map[uint64]bool{}
	for _, d := range c.machines {
		for i := 0; i < 100; i++ {
			id := d.NewRumorID()
			if seen[id] {
				t.Fatalf("duplicate rumor ID %x", id)
			}
			seen[id] = true
		}
	}
}

// TestAtomicInfectionProbabilityMatchesTheory is the in-package miniature
// of experiment C1: at c=1 the analytic atomic-infection probability is
// e^(-e^-1) ≈ 0.692. We run 60 trials and accept a generous band.
func TestAtomicInfectionProbabilityMatchesTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short")
	}
	const n = 400
	const trials = 60
	atomic := 0
	for trial := 0; trial < trials; trial++ {
		cfg := Config{Fanout: FixedFanout(math.Log(n) + 1)}
		c := newCluster(n, int64(1000+trial), cfg)
		id, envs := c.machines[1].Publish(c.net.Round(), "x")
		c.net.Emit(1, envs)
		c.net.Quiesce(60)
		if c.infected(id) == n {
			atomic++
		}
	}
	p := float64(atomic) / trials
	want := math.Exp(-math.Exp(-1)) // ≈ 0.692
	if math.Abs(p-want) > 0.2 {
		t.Fatalf("P(atomic) = %v over %d trials, analytic %v", p, trials, want)
	}
}

// TestRetentionPrunesAcrossDowntime pins the catch-up half of the
// bucketed prune: a node that sleeps through its rumors' expiry rounds
// must still forget them on the first post-revival tick, like the old
// full-map sweep did.
func TestRetentionPrunesAcrossDowntime(t *testing.T) {
	cfg := Config{Fanout: FixedFanout(0), Retention: 5}
	c := newCluster(2, 19, cfg)
	d := c.machines[1]
	id, _ := d.Publish(c.net.Round(), "x")
	c.net.Kill(1, false)
	c.net.Run(40) // expiry round passes (several ring cycles) while dead
	c.net.Revive(1)
	c.net.Run(1) // first post-revival tick prunes the backlog
	if d.Seen(id) {
		t.Fatal("rumor survived its retention window across downtime")
	}
}

// lone builds one Disseminator with no peers, driven by hand.
func lone(cfg Config) *Disseminator { return newCluster(1, 1, cfg).machines[1] }

// replyIDs lists the rumor IDs of a DigestReq reply (nil envelopes: none).
func replyIDs(envs []sim.Envelope) []uint64 {
	var out []uint64
	for _, e := range envs {
		for _, r := range e.Msg.(DigestResp).Rumors {
			out = append(out, r.ID)
		}
	}
	return out
}

// TestPayloadCacheBudget pins the byte budget's contract: past it the
// oldest payloads leave first; their IDs stay seen, so a late copy is
// still a suppressed duplicate; a digest pull is answered from what the
// cache still holds and nothing else; and once retention has drained
// the cache the byte account is back at zero.
func TestPayloadCacheBudget(t *testing.T) {
	if payloadCacheBytes > wire.MaxNodeFrame/2 {
		t.Fatalf("budget %d exceeds half a node frame (%d): a whole-cache DigestResp may not fit one", payloadCacheBytes, wire.MaxNodeFrame/2)
	}
	d := lone(Config{
		Fanout:           FixedFanout(0),
		AntiEntropyEvery: 1000,
		Retention:        20,
		PayloadBytes:     func(p any) int { return len(p.(string)) },
	})
	d.budget = 100
	payload := "thirty bytes of rumor payload.." // 31 bytes: three fit the budget
	var ids []uint64
	for r := 0; r < 10; r++ {
		id, _ := d.Publish(sim.Round(r), payload)
		ids = append(ids, id)
		if d.CacheBytes() > d.budget {
			t.Fatalf("round %d: %d bytes cached, budget %d", r, d.CacheBytes(), d.budget)
		}
	}
	if d.Evicted != 7 || d.CacheBytes() != 3*len(payload) {
		t.Fatalf("evicted %d, %d bytes cached; want 7 and %d", d.Evicted, d.CacheBytes(), 3*len(payload))
	}
	// A peer that has seen nothing is sent the three newest, by ID.
	if got := replyIDs(d.Handle(10, 2, DigestReq{})); !slices.Equal(got, ids[7:]) {
		t.Fatalf("digest reply = %x, want the three newest %x", got, ids[7:])
	}
	// A peer that has seen exactly those three gets no reply, although it
	// lacks the seven evicted ones: they can no longer be supplied here.
	if envs := d.Handle(10, 2, DigestReq{IDs: ids[7:]}); envs != nil {
		t.Fatalf("digest reply carries evicted rumors: %x", replyIDs(envs))
	}
	for _, id := range ids[:7] {
		if !d.Seen(id) {
			t.Fatalf("evicted rumor %x is no longer seen", id)
		}
		d.Handle(10, 2, RumorMsg{Rumor: Rumor{ID: id, Payload: payload, Hops: 1}})
	}
	if d.Dupes != 7 || d.Delivered != 10 {
		t.Fatalf("late copies of evicted rumors: %d dupes, %d delivered; want 7 and 10", d.Dupes, d.Delivered)
	}
	d.Tick(9 + 20) // the newest rumor's last round inside retention
	if d.CacheBytes() != len(payload) || !d.Seen(ids[9]) {
		t.Fatalf("a round early: %d bytes cached, newest seen = %v", d.CacheBytes(), d.Seen(ids[9]))
	}
	d.Tick(9 + 20 + 1)
	if d.CacheBytes() != 0 || len(d.cache) != 0 || d.Seen(ids[9]) {
		t.Fatalf("retention drained: %d bytes, %d entries, newest seen = %v", d.CacheBytes(), len(d.cache), d.Seen(ids[9]))
	}
	if d.Evicted != 7 {
		t.Fatalf("retention expiry counted as eviction: %d", d.Evicted)
	}
}

// TestUnsizedPayloadsBookkeepingIsBounded: with PayloadBytes nil the
// budget never binds, and every structure the Disseminator keeps per
// rumor must still be bounded by the retention window alone — the
// eviction order and the retention order are one FIFO precisely so that
// nothing is trimmed only when the budget binds.
func TestUnsizedPayloadsBookkeepingIsBounded(t *testing.T) {
	d := lone(Config{Fanout: FixedFanout(0), AntiEntropyEvery: 10})
	type sizes struct{ cached, cacheCap, seen, seenSlots, expiry, expiryCap int }
	measure := func() sizes {
		s := sizes{
			cached: len(d.cache) - d.cacheHead, cacheCap: cap(d.cache),
			seen: d.SeenLen(), seenSlots: len(d.seen.keys),
		}
		for _, b := range d.expiry {
			s.expiry += len(b)
			s.expiryCap += cap(b)
		}
		return s
	}
	var early sizes
	for r := 0; r < 10000; r++ {
		d.Publish(sim.Round(r), r)
		d.Tick(sim.Round(r))
		if r == 999 {
			early = measure()
		}
	}
	if late := measure(); late != early {
		t.Fatalf("bookkeeping at round 10000 = %+v, at round 1000 = %+v", late, early)
	}
	if early.cached != 101 || d.CacheBytes() != 0 || d.Evicted != 0 {
		t.Fatalf("%d cached (want the 101 rounds inside retention), %d bytes, %d evicted", early.cached, d.CacheBytes(), d.Evicted)
	}
}

// countingSource is a rand.Source that counts the values drawn from it.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// draw is one recorded sampler call: the peers it returned and the
// random values it consumed.
type draw struct {
	peers    []node.ID
	rngDraws int
}

// recordingSampler wraps a UniformView and records every draw.
type recordingSampler struct {
	inner *membership.UniformView
	src   *countingSource
	draws []draw
}

func (s *recordingSampler) record(before int, peers []node.ID) []node.ID {
	s.draws = append(s.draws, draw{peers: slices.Clone(peers), rngDraws: s.src.draws - before})
	return peers
}

func (s *recordingSampler) Sample(k int) []node.ID {
	before := s.src.draws
	return s.record(before, s.inner.Sample(k))
}

func (s *recordingSampler) SampleInto(k int, buf []node.ID) []node.ID {
	before := s.src.draws
	return s.record(before, s.inner.SampleInto(k, buf))
}

func (s *recordingSampler) One() node.ID { return s.inner.One() }

// recorder is one node under TestRelayDropsOnlyGuaranteedDuplicates:
// every Handle is checked against the sampler draws it made.
type recorder struct {
	t       *testing.T
	d       *Disseminator
	sampler *recordingSampler
	src     *countingSource
	firsts  int // first receipts, each of which relayed
	dropped int // sampled targets not relayed to
}

func (m *recorder) Start(now sim.Round) []sim.Envelope { return m.d.Start(now) }
func (m *recorder) Tick(now sim.Round) []sim.Envelope  { return m.d.Tick(now) }

func (m *recorder) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	t := m.t
	r := msg.(RumorMsg).Rumor
	first := !m.d.Seen(r.ID)
	calls, rngBefore := len(m.sampler.draws), m.src.draws
	out := m.d.Handle(now, from, msg)
	rngDraws := m.src.draws - rngBefore
	if !first {
		if len(out) != 0 || len(m.sampler.draws) != calls || rngDraws != 0 {
			t.Fatalf("node %v: duplicate relayed %d, drew %d times", m.d.self, len(out), rngDraws)
		}
		return out
	}
	if len(m.sampler.draws) != calls+1 {
		t.Fatalf("node %v: %d sampler calls for one relay", m.d.self, len(m.sampler.draws)-calls)
	}
	m.firsts++
	dr := m.sampler.draws[calls]
	// One draw decides the fractional fanout; the sampler's are the rest.
	// A replacement target would cost draws outside both.
	if rngDraws != 1+dr.rngDraws {
		t.Fatalf("node %v: %d random draws, want 1 + the sampler's %d", m.d.self, rngDraws, dr.rngDraws)
	}
	emitted := make([]node.ID, len(out))
	for i, e := range out {
		emitted[i] = e.To
	}
	var dropped []node.ID
	for _, p := range dr.peers {
		if !slices.Contains(emitted, p) {
			dropped = append(dropped, p)
		}
	}
	m.dropped += len(dropped)
	for _, p := range emitted {
		if !slices.Contains(dr.peers, p) {
			t.Fatalf("node %v: relayed to %v, which was not sampled (%v)", m.d.self, p, dr.peers)
		}
	}
	for _, p := range dropped {
		if p != from {
			t.Fatalf("node %v: sampled %v but did not relay to it; it was pushed by %v", m.d.self, p, from)
		}
	}
	if len(emitted)+len(dropped) != len(dr.peers) {
		t.Fatalf("node %v: emitted %v + dropped %v != sampled %v", m.d.self, emitted, dropped, dr.peers)
	}
	return out
}

// TestRelayDropsOnlyGuaranteedDuplicates pins the relay filter to its
// contract at paper-like fanout (N=200, c=1): every target relayed to was
// sampled, every sampled target not relayed to is the peer that pushed
// the rumor, and the random draws are exactly those of an unfiltered
// relay — one for the fractional fanout plus the sampler's — so nothing
// is redrawn to replace a dropped target.
func TestRelayDropsOnlyGuaranteedDuplicates(t *testing.T) {
	const n = 200
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		net := sim.New(sim.Config{Seed: seed})
		ids := make([]node.ID, n)
		for i := range ids {
			ids[i] = node.ID(i + 1)
		}
		pop := func() []node.ID { return ids }
		nodes := make([]*recorder, 0, n)
		for i := 0; i < n; i++ {
			net.Spawn(func(id node.ID, _ *rand.Rand) sim.Machine {
				src := &countingSource{Source: rand.NewSource(seed*1000 + int64(id))}
				rng := rand.New(src)
				s := &recordingSampler{inner: membership.NewUniformView(id, rng, pop), src: src}
				m := &recorder{t: t, sampler: s, src: src,
					d: New(id, rng, s, Config{Fanout: FanoutLnN(func() float64 { return n }, 1)})}
				nodes = append(nodes, m)
				return m
			})
		}
		for r := 0; r < 3; r++ {
			pub := nodes[(int(seed)*17+r*31)%n]
			_, envs := pub.d.Publish(net.Round(), r)
			net.Emit(pub.d.self, envs)
		}
		net.Quiesce(60)
		firsts, dropped, sent, dupes := 0, 0, int64(0), int64(0)
		for _, m := range nodes {
			firsts += m.firsts
			dropped += m.dropped
			sent += m.d.Relayed
			dupes += m.d.Dupes
		}
		// The rumors spread (c=1 is atomic about 69% of the time), the
		// filter had targets to drop, and every copy sent arrived as a
		// first receipt or a counted duplicate.
		if firsts < 3*n/2 || dropped == 0 || int64(firsts)+dupes != sent {
			t.Fatalf("seed %d: %d first receipts, %d dropped, %d sent, %d dupes", seed, firsts, dropped, sent, dupes)
		}
	}
}

// partialView is a UniformView without CoveringSampler: a node sampling
// from a partial view cannot tell what its pusher's draw reached.
type partialView struct{ u *membership.UniformView }

func (p partialView) Sample(k int) []node.ID { return p.u.Sample(k) }
func (p partialView) SampleInto(k int, buf []node.ID) []node.ID {
	return p.u.SampleInto(k, buf)
}
func (p partialView) One() node.ID { return p.u.One() }

// partial makes every node of c sample through a partialView.
func (c *cluster) partial() *cluster {
	for _, d := range c.machines {
		d.sampler = partialView{d.sampler.(*membership.UniformView)}
	}
	return c
}

// TestRelaySkipsOnlyThePusher: over partial views, with three nodes and a
// fanout that samples every peer, a publish goes to both others and a
// pushed rumor goes on to every sampled peer but the one that pushed it —
// the publisher included, because its seen entry may have expired: then
// that copy is a first receipt again. A rumor from a digest reply skips
// nobody, because the responder may forget it before the copy arrives.
func TestRelaySkipsOnlyThePusher(t *testing.T) {
	c := newCluster(3, 1, Config{Fanout: FixedFanout(3), Retention: 5}).partial()
	targets := func(envs []sim.Envelope) []node.ID {
		var out []node.ID
		for _, e := range envs {
			out = append(out, e.To)
		}
		slices.Sort(out)
		return out
	}
	id, envs := c.machines[1].Publish(0, "x")
	if got := targets(envs); !slices.Equal(got, []node.ID{2, 3}) {
		t.Fatalf("publish relays to %v, want [2 3]", got)
	}
	msg := envs[0].Msg
	if got := targets(c.machines[2].Handle(0, 1, msg)); !slices.Equal(got, []node.ID{3}) {
		t.Fatalf("first receipt from the publisher relays to %v, want [3]", got)
	}
	c.machines[1].Tick(6) // the publisher's retention ends
	if got := targets(c.machines[3].Handle(6, 2, msg)); !slices.Equal(got, []node.ID{1}) {
		t.Fatalf("first receipt pushed by a non-publisher relays to %v, want [1]", got)
	}
	if c.machines[1].Seen(id) || c.machines[1].Handle(7, 3, msg) == nil || !c.machines[1].Seen(id) {
		t.Fatal("a publisher past retention must take its own rumor as a first receipt")
	}
	requester := newCluster(3, 2, Config{Fanout: FixedFanout(3)}).partial().machines[3]
	resp := DigestResp{Rumors: []Rumor{msg.(RumorMsg).Rumor}}
	if got := targets(requester.Handle(0, 2, resp)); !slices.Equal(got, []node.ID{1, 2}) {
		t.Fatalf("first receipt from a digest reply relays to %v, want [1 2]", got)
	}

	// With every target skipped nothing is boxed and nothing allocated.
	pair := newCluster(2, 3, Config{Fanout: FixedFanout(3)}).partial().machines[2]
	r := msg.(RumorMsg).Rumor
	if allocs := testing.AllocsPerRun(100, func() {
		if pair.relay(r, 1) != nil {
			t.Fatal("a relay whose only target is the pusher sends")
		}
	}); allocs != 0 {
		t.Fatalf("a relay with every target skipped allocates %v times", allocs)
	}
}

// TestCoveredPushRelaysNothing: when the whole part of the fanout draws
// every peer of the shared population, a publish reaches everyone, so a
// pushed first receipt relays to nobody and a 3-node cluster sends 2
// copies per rumor with no duplicate. A digest-reply receipt still relays
// to every peer, and a fanout whose whole part falls short relays as
// before.
func TestCoveredPushRelaysNothing(t *testing.T) {
	c := newCluster(3, 4, Config{Fanout: FixedFanout(2.5)})
	const rumors = 100
	var ids []uint64
	for i := 0; i < rumors; i++ {
		id, envs := c.machines[node.ID(i%3+1)].Publish(c.net.Round(), i)
		c.net.Emit(node.ID(i%3+1), envs)
		ids = append(ids, id)
	}
	c.net.Quiesce(20)
	var sent, dupes int64
	for _, d := range c.machines {
		sent += d.Relayed
		dupes += d.Dupes
	}
	for _, id := range ids {
		if c.infected(id) != 3 {
			t.Fatalf("rumor %x reached %d of 3 nodes", id, c.infected(id))
		}
	}
	if sent != 2*rumors || dupes != 0 {
		t.Fatalf("%d rumors: %d copies sent, %d duplicates; want %d and 0", rumors, sent, dupes, 2*rumors)
	}

	requester := newCluster(3, 5, Config{Fanout: FixedFanout(2.5)}).machines[3]
	resp := DigestResp{Rumors: []Rumor{{ID: ids[0]}}}
	if got := len(requester.Handle(0, 2, resp)); got != 2 {
		t.Fatalf("first receipt from a digest reply relays to %d peers, want 2", got)
	}

	short := newCluster(3, 6, Config{Fanout: FixedFanout(1.5)}).machines[2]
	relayed := 0
	for _, id := range ids {
		relayed += len(short.Handle(0, 1, RumorMsg{Rumor: Rumor{ID: id}}))
	}
	if relayed == 0 {
		t.Fatal("a fanout of 1.5 over two peers never relayed a pushed rumor")
	}
}

// cachedIDs lists the IDs whose payloads d still caches, ascending.
func cachedIDs(d *Disseminator) []uint64 {
	var ids []uint64
	for _, c := range d.cache[d.cacheHead:] {
		ids = append(ids, c.rumor.ID)
	}
	slices.Sort(ids)
	return ids
}

// TestDigestIsTheCache pins what a digest pull advertises: the IDs the
// requester still caches, ascending. While the budget does not bind that
// is every seen ID, the digest before the cache bounded it; once it binds
// it is the cache alone, and the reply still carries everything the
// responder could supply that the requester has not seen.
func TestDigestIsTheCache(t *testing.T) {
	sized := Config{
		Fanout:           FixedFanout(0),
		AntiEntropyEvery: 1000,
		PayloadBytes:     func(p any) int { return 10 },
	}
	// rumors feeds d, oldest first, count rounds of: one receipt from
	// each of origin and origin+1 (their sequence numbers counting down
	// to 1), then one publish of its own — so arrival order is not ID
	// order.
	rumors := func(d *Disseminator, origin node.ID, count int) []uint64 {
		var ids []uint64
		for i := 0; i < count; i++ {
			for _, o := range []node.ID{origin, origin + 1} {
				rid := uint64(o)<<32 | uint64(count-i)
				d.Handle(0, o, RumorMsg{Rumor: Rumor{ID: rid, Payload: i}})
				ids = append(ids, rid)
			}
			id, _ := d.Publish(0, i)
			ids = append(ids, id)
		}
		return ids
	}

	unsized := sized
	unsized.PayloadBytes = nil
	d := lone(unsized)
	ids := rumors(d, 5, 300)
	slices.Sort(ids)
	if got := d.digest(); !slices.Equal(got, ids) || len(got) != d.SeenLen() {
		t.Fatalf("unbounded cache: digest has %d IDs, want all %d seen", len(got), d.SeenLen())
	}

	req := lone(sized)
	req.budget = 10 * 200
	rumors(req, 5, 300)
	if got := req.digest(); !slices.Equal(got, cachedIDs(req)) || len(got) != 200 || req.SeenLen() != 900 {
		t.Fatalf("bounded cache: digest has %d IDs, %d seen; want the 200 cached", len(got), req.SeenLen())
	}

	// The responder's cache (its newest 500) holds its own rumors, which
	// the requester never saw, and origins 5 and 6 from sequence ~166
	// down: the requester still caches the lowest ~67 of those and has
	// seen but evicted the rest.
	resp := newCluster(2, 2, sized).machines[2]
	resp.budget = 10 * 500
	rumors(resp, 7, 200)
	rumors(resp, 5, 200)
	digest := req.digest()
	reply := replyIDs(resp.Handle(0, 1, DigestReq{IDs: digest}))
	var mustSend []uint64
	for _, id := range cachedIDs(resp) {
		if !req.Seen(id) {
			mustSend = append(mustSend, id)
		}
		if _, found := slices.BinarySearch(digest, id); found == slices.Contains(reply, id) {
			t.Fatalf("reply rule: %x in the requester's digest = %v, in the reply = %v", id, found, !found)
		}
	}
	for _, id := range mustSend {
		if !slices.Contains(reply, id) {
			t.Fatalf("reply lacks %x, cached by the responder and never seen by the requester", id)
		}
	}
	if len(mustSend) == 0 || len(reply) <= len(mustSend) {
		t.Fatalf("reply %d, responder-cache minus requester-seen %d: the case does not exercise eviction", len(reply), len(mustSend))
	}
}

var digestSink []uint64

// BenchmarkDigestBuild is the anti-entropy tick's digest at serve-write's
// steady state: 1.4M rumors of 1 KiB inside retention (~70k writes/s for
// 20 s), so the payload budget binds and the digest is the cache, not
// the seen table. ids/op is the digest's length; it must stay at or
// below the cache's entry count, payloadCacheBytes/1 KiB (8 192 at the
// 8 MiB budget).
func BenchmarkDigestBuild(b *testing.B) {
	d := lone(Config{
		Fanout:           FixedFanout(0),
		AntiEntropyEvery: 10,
		PayloadBytes:     func(any) int { return 1 << 10 },
	})
	const published = 1_400_000
	for i := 0; i < published; i++ {
		d.Publish(sim.Round(i/(published/100)), nil)
	}
	b.ReportAllocs()
	for b.Loop() {
		digestSink = d.digest()
	}
	b.ReportMetric(float64(len(digestSink)), "ids/op")
}
