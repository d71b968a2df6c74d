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

var digestSink []uint64

// BenchmarkDigestBuild is the anti-entropy tick's share of the driver at
// serve-write's steady state: collecting and sorting ~250k seen IDs.
func BenchmarkDigestBuild(b *testing.B) {
	d := lone(Config{Fanout: FixedFanout(0)})
	for i := 0; i < 250000; i++ {
		d.Publish(sim.Round(i/2500), nil)
	}
	b.ReportAllocs()
	for b.Loop() {
		digestSink = d.digest()
	}
}
