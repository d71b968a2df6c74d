package epidemic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

type cluster struct {
	net   *sim.Network
	nodes map[node.ID]*Node
	ids   []node.ID
}

func newCluster(n int, seed int64, cfg Config) *cluster {
	c := &cluster{
		net:   sim.New(sim.Config{Seed: seed}),
		nodes: make(map[node.ID]*Node, n),
	}
	ids := make([]node.ID, n)
	for i := range ids {
		ids[i] = node.ID(i + 1)
	}
	c.ids = ids
	pop := func() []node.ID { return c.ids }
	for i := 0; i < n; i++ {
		c.net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			en := New(id, rng, membership.NewUniformView(id, rng, pop), cfg)
			c.nodes[id] = en
			return en
		})
	}
	return c
}

func mk(key string, seq uint64, val string) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Value: []byte(val), Version: tuple.Version{Seq: seq, Writer: 1}}
}

// holders counts alive nodes storing a live copy of key.
func (c *cluster) holders(key string) int {
	count := 0
	for id, en := range c.nodes {
		if !c.net.Alive(id) {
			continue
		}
		if _, ok := en.St.Get(key); ok {
			count++
		}
	}
	return count
}

func TestWriteReachesRoughlyRReplicas(t *testing.T) {
	const n, r = 100, 4
	c := newCluster(n, 3, Config{Replication: r, FanoutC: 2, DisableRepair: true})
	c.net.Run(15) // size estimation warms up
	var total int
	const writes = 40
	for i := 0; i < writes; i++ {
		origin := c.nodes[node.ID(i%n+1)]
		c.net.Emit(origin.Self, origin.Write(c.net.Round(), mk(fmt.Sprintf("key-%d", i), 1, "v")))
	}
	c.net.Run(20)
	for i := 0; i < writes; i++ {
		total += c.holders(fmt.Sprintf("key-%d", i))
	}
	mean := float64(total) / writes
	if mean < r/2.0 || mean > r*2.0 {
		t.Fatalf("mean replicas = %v, want ≈%d", mean, r)
	}
}

func TestWriteIdempotentUnderRedelivery(t *testing.T) {
	const n = 30
	c := newCluster(n, 5, Config{Replication: 3, FanoutC: 3, DisableRepair: true})
	c.net.Run(10)
	origin := c.nodes[1]
	// Same tuple written twice (same version): second dissemination must
	// not change state.
	tup := mk("dup-key", 1, "v")
	c.net.Emit(1, origin.Write(c.net.Round(), tup))
	c.net.Run(15)
	before := c.holders("dup-key")
	c.net.Emit(1, origin.Write(c.net.Round(), tup))
	c.net.Run(15)
	if after := c.holders("dup-key"); after != before {
		t.Fatalf("redelivery changed holders: %d -> %d", before, after)
	}
}

func TestNewerVersionWins(t *testing.T) {
	const n = 40
	c := newCluster(n, 7, Config{Replication: 4, FanoutC: 3, DisableRepair: true})
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("k", 1, "old")))
	c.net.Run(15)
	c.net.Emit(2, c.nodes[2].Write(c.net.Round(), mk("k", 2, "new")))
	c.net.Run(15)
	for id, en := range c.nodes {
		if got, ok := en.St.Get("k"); ok && string(got.Value) != "new" {
			t.Fatalf("node %v kept stale value %q", id, got.Value)
		}
	}
}

func TestDeleteTombstonePropagates(t *testing.T) {
	const n = 40
	c := newCluster(n, 9, Config{Replication: 4, FanoutC: 3, DisableRepair: true})
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("k", 1, "v")))
	c.net.Run(15)
	del := mk("k", 2, "")
	del.Deleted = true
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), del))
	c.net.Run(15)
	if got := c.holders("k"); got != 0 {
		t.Fatalf("%d live holders after delete", got)
	}
}

func TestHintsReachOrigin(t *testing.T) {
	const n = 50
	c := newCluster(n, 11, Config{Replication: 3, FanoutC: 3, DisableRepair: true})
	hints := map[string][]node.ID{}
	c.nodes[1].OnHint = func(key string, holder node.ID, _ tuple.Version) {
		hints[key] = append(hints[key], holder)
	}
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("hinted", 1, "v")))
	c.net.Run(15)
	got := hints["hinted"]
	if len(got) == 0 {
		t.Fatal("origin received no storage hints")
	}
	// Every hint must identify an actual holder.
	for _, h := range got {
		if _, ok := c.nodes[h].St.Get("hinted"); !ok {
			t.Fatalf("hint %v does not hold the tuple", h)
		}
	}
}

func TestLookupViaHints(t *testing.T) {
	const n = 60
	c := newCluster(n, 13, Config{Replication: 3, FanoutC: 3, DisableRepair: true})
	var hints []node.ID
	c.nodes[1].OnHint = func(key string, holder node.ID, _ tuple.Version) { hints = append(hints, holder) }
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("target", 1, "payload")))
	c.net.Run(15)
	if len(hints) == 0 {
		t.Fatal("no hints collected")
	}
	reader := c.nodes[2]
	reqID, envs := reader.Lookup("target", hints, 0, 0)
	c.net.Emit(2, envs)
	c.net.Run(5)
	st, ok := reader.Read(reqID)
	if !ok || !st.Hit {
		t.Fatalf("hinted read missed: %+v", st)
	}
	if string(st.Tuple.Value) != "payload" {
		t.Fatalf("read value %q", st.Tuple.Value)
	}
}

func TestLookupByProbing(t *testing.T) {
	const n = 50
	// High replication so random probes hit quickly.
	c := newCluster(n, 15, Config{Replication: 12, FanoutC: 4, DisableRepair: true})
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("needle", 1, "found")))
	c.net.Run(15)
	reader := c.nodes[30]
	reqID, envs := reader.Lookup("needle", nil, 12, 4)
	c.net.Emit(30, envs)
	c.net.Run(12)
	st, _ := reader.Read(reqID)
	if !st.Hit {
		t.Fatalf("probe read missed (%d replies)", st.Replies)
	}
	reader.ForgetRead(reqID)
	if _, ok := reader.Read(reqID); ok {
		t.Fatal("ForgetRead left state")
	}
}

func TestLocalLookupImmediate(t *testing.T) {
	c := newCluster(10, 17, Config{Replication: 10, FanoutC: 4, DisableRepair: true})
	c.net.Run(10)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("here", 1, "v")))
	c.net.Run(15)
	// Find a holder and read from it: must resolve without any traffic.
	for id, en := range c.nodes {
		if _, ok := en.St.Get("here"); ok {
			reqID, envs := en.Lookup("here", nil, 3, 2)
			if envs != nil {
				t.Fatalf("local hit emitted traffic: %v", envs)
			}
			st, _ := en.Read(reqID)
			if !st.Hit {
				t.Fatal("local hit not recorded")
			}
			_ = id
			return
		}
	}
	t.Fatal("no holder found")
}

func TestSizeEstimateFeedsFanout(t *testing.T) {
	const n = 200
	c := newCluster(n, 19, Config{Replication: 3, FanoutC: 1, DisableRepair: true})
	c.net.Run(35) // past one size-estimation epoch
	est := c.nodes[1].NEstimate()
	if est < n/2 || est > n*2 {
		t.Fatalf("size estimate %v, want ≈%d", est, n)
	}
	// Grain should be ≈ r/N̂.
	g := c.nodes[1].Grain()
	want := 3.0 / est
	if math.Abs(g-want) > want*0.5 {
		t.Fatalf("grain = %v, want ≈%v", g, want)
	}
}

func TestRepairMaintainsReplicasAfterPermanentFailures(t *testing.T) {
	const n, r = 60, 4
	c := newCluster(n, 21, Config{
		Replication: r, FanoutC: 3,
		Repair: repair.Config{CheckEvery: 5, Grace: 10, Walks: 64, TTL: 6, WaitRounds: 10},
	})
	c.net.Run(35)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("precious", 1, "v")))
	c.net.Run(15)
	before := c.holders("precious")
	if before == 0 {
		t.Fatal("write not stored")
	}
	// Permanently kill every holder except one, in deterministic order.
	killed := 0
	for _, id := range c.ids {
		en := c.nodes[id]
		if _, ok := en.St.Get("precious"); ok && before-killed > 1 {
			c.net.Kill(id, true)
			killed++
		}
	}
	c.net.Run(400) // repair cycles: walks + grace + recruitment + sync
	after := c.holders("precious")
	if after < 2 {
		t.Fatalf("holders after repair = %d (was %d, killed %d)", after, before, killed)
	}
}

func TestAggregationOverStore(t *testing.T) {
	const n = 40
	c := newCluster(n, 23, Config{
		Replication: 3, FanoutC: 3, DisableRepair: true,
		AggregateAttrs: []string{"count"}, AggEpochLen: 20,
	})
	c.net.Run(10)
	const writes = 30
	for i := 0; i < writes; i++ {
		origin := c.nodes[node.ID(i%n+1)]
		c.net.Emit(origin.Self, origin.Write(c.net.Round(), mk(fmt.Sprintf("k-%d", i), 1, "v")))
	}
	// Run through a full aggregation epoch after the writes landed.
	c.net.Run(50)
	a := c.nodes[1].Aggs["count"]
	nEst := c.nodes[1].NEstimate()
	got := a.SumEstimate(nEst)
	// Global count estimate ≈ distinct tuples (replication-normalised).
	if got < writes/2 || got > writes*2 {
		t.Fatalf("count estimate = %v, want ≈%d", got, writes)
	}
}

func TestQuantileSieveWithScan(t *testing.T) {
	const n = 50
	c := newCluster(n, 25, Config{
		Replication: 4, FanoutC: 3,
		Sieve: SieveQuantile, QuantileAttr: "price",
		DistEpochLen: 15, DistBuckets: 16, DisableRepair: true,
		OrderAttr: true,
	})
	c.net.Run(20) // histogram warm-up (first epoch)
	rng := rand.New(rand.NewSource(1))
	const writes = 120
	for i := 0; i < writes; i++ {
		tp := mk(fmt.Sprintf("item-%d", i), 1, "v")
		tp.Attrs = map[string]float64{"price": rng.NormFloat64()*10 + 100}
		origin := c.nodes[node.ID(i%n+1)]
		c.net.Emit(origin.Self, origin.Write(c.net.Round(), tp))
	}
	c.net.Run(60) // second dist epoch sees stored data; overlay converges
	// Every write must be stored somewhere (coverage through fallback +
	// quantile arcs).
	lost := 0
	for i := 0; i < writes; i++ {
		if c.holders(fmt.Sprintf("item-%d", i)) == 0 {
			lost++
		}
	}
	if lost > writes/10 {
		t.Fatalf("%d of %d tuples lost under quantile sieve", lost, writes)
	}
	// Ordered scan for a mid-range slice, entering the overlay at node 7
	// on behalf of a client outside the persistent population — the role
	// a soft node plays — which collects the ScanResps.
	col := &scanCollector{}
	origin := c.net.Spawn(func(node.ID, *rand.Rand) sim.Machine { return col })
	c.net.Emit(origin, []sim.Envelope{{To: 7, Msg: ScanReq{
		Attr: "price", Lo: 90, Hi: 110, ReqID: 1, Origin: origin, HopsLeft: 40,
	}}})
	c.net.Run(45)
	if len(col.tuples) == 0 {
		t.Fatal("scan returned nothing")
	}
	for _, tp := range col.tuples {
		v := tp.Attrs["price"]
		if v < 90 || v > 110 {
			t.Fatalf("scan returned out-of-range value %v", v)
		}
	}
}

// scanCollector is a scan origin outside the persistent layer: it keeps
// the tuples of every ScanResp sent back to it.
type scanCollector struct{ tuples []*tuple.Tuple }

func (s *scanCollector) Start(sim.Round) []sim.Envelope { return nil }
func (s *scanCollector) Tick(sim.Round) []sim.Envelope  { return nil }
func (s *scanCollector) Handle(_ sim.Round, _ node.ID, msg any) []sim.Envelope {
	if m, ok := msg.(ScanResp); ok {
		s.tuples = append(s.tuples, m.Tuples...)
	}
	return nil
}

func TestAntiEntropyCatchesUpRebootedNode(t *testing.T) {
	const n = 30
	c := newCluster(n, 27, Config{
		Replication: 29, // near-full replication so node 5 must store it
		FanoutC:     4, AntiEntropyEvery: 3, DisableRepair: true,
	})
	c.net.Run(10)
	c.net.Kill(5, false)
	c.net.Emit(1, c.nodes[1].Write(c.net.Round(), mk("missed", 1, "v")))
	c.net.Run(15)
	if _, ok := c.nodes[5].St.Get("missed"); ok {
		t.Fatal("dead node stored the write")
	}
	c.net.Revive(5)
	c.net.Run(30)
	if _, ok := c.nodes[5].St.Get("missed"); !ok {
		t.Fatal("anti-entropy did not catch up the rebooted node")
	}
}

func TestReadRepairPushesWinnerToStaleResponder(t *testing.T) {
	// Range checks are muted (they effectively never fire) so read-repair
	// is what moves the counter; the repair manager itself stays wired,
	// since it handles the SyncPush the repair sends.
	c := newCluster(8, 51, Config{Replication: 3,
		Repair: repair.Config{CheckEvery: 1 << 20}})
	c.net.Run(10)
	key := "rr-key"
	// Nodes 2 and 3 hold divergent versions; the origin (node 1) reads
	// both via hints and must asynchronously push v5 to the stale node.
	c.nodes[2].St.Apply(mk(key, 5, "new"))
	c.nodes[3].St.Apply(mk(key, 2, "old"))
	reqID, envs := c.nodes[1].Lookup(key, []node.ID{2, 3}, 0, 0)
	c.net.Emit(1, envs)
	c.net.Run(12)
	st, ok := c.nodes[1].Read(reqID)
	if !ok || !st.Hit || st.Tuple.Version.Seq != 5 {
		t.Fatalf("read state = %+v, want hit at v5", st)
	}
	got, ok := c.nodes[3].St.Get(key)
	if !ok || got.Version.Seq != 5 {
		t.Fatalf("stale responder has %v, want read-repaired to v5", got)
	}
	if c.nodes[1].ReadRepairs == 0 {
		t.Fatal("ReadRepairs counter did not move")
	}
	// The fresh responder was never "repaired".
	if got, _ := c.nodes[2].St.Get(key); got.Version.Seq != 5 {
		t.Fatalf("fresh responder has %v, want untouched v5", got)
	}
}

func TestReadOrderCompactsWhenReadsAreForgotten(t *testing.T) {
	c := newCluster(4, 55, Config{Replication: 2, DisableRepair: true})
	c.net.Run(5)
	n := c.nodes[1]
	n.St.Apply(mk("ro", 1, "v"))
	// A caller that forgets every read must not grow the order slice.
	for i := 0; i < 5000; i++ {
		reqID, _ := n.Lookup("ro", nil, 0, 0) // local hit: no traffic
		n.ForgetRead(reqID)
	}
	if len(n.readOrder) > 2*len(n.reads)+16 {
		t.Fatalf("readOrder grew to %d with %d live reads", len(n.readOrder), len(n.reads))
	}
}
