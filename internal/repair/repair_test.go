package repair

import (
	"fmt"
	"math/rand"
	"testing"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/sieve"
	"datadroplets/internal/sim"
	"datadroplets/internal/store"
	"datadroplets/internal/tuple"
)

// stubSieve is an ArcSieve with explicit arcs, letting tests craft exact
// responsibility layouts.
type stubSieve struct{ arcs []node.Arc }

func (s *stubSieve) Keep(t *tuple.Tuple) bool {
	p := t.Point()
	for _, a := range s.arcs {
		if a.Contains(p) {
			return true
		}
	}
	return false
}
func (s *stubSieve) Grain() float64 {
	var f float64
	for _, a := range s.arcs {
		f += a.Fraction()
	}
	return f
}
func (s *stubSieve) Arcs() []node.Arc { return s.arcs }

var _ sieve.ArcSieve = (*stubSieve)(nil)

// testNode composes walker + manager the way the epidemic node does.
type testNode struct {
	id     node.ID
	st     *store.Store
	walker *randomwalk.Walker
	mgr    *Manager
}

func (n *testNode) Start(now sim.Round) []sim.Envelope {
	out := n.walker.Start(now)
	return append(out, n.mgr.Start(now)...)
}

func (n *testNode) Tick(now sim.Round) []sim.Envelope {
	out := n.walker.Tick(now)
	return append(out, n.mgr.Tick(now)...)
}

func (n *testNode) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	switch msg.(type) {
	case *randomwalk.WalkMsg, randomwalk.WalkResult:
		return n.walker.Handle(now, from, msg)
	default:
		return n.mgr.Handle(now, from, msg)
	}
}

type cluster struct {
	net   *sim.Network
	nodes map[node.ID]*testNode
	ids   []node.ID
}

// newCluster builds n test nodes; arcsFor assigns each index its sieve
// arcs.
func newCluster(n int, seed int64, cfg Config, arcsFor func(i int) []node.Arc) *cluster {
	c := &cluster{
		net:   sim.New(sim.Config{Seed: seed}),
		nodes: make(map[node.ID]*testNode, n),
	}
	ids := make([]node.ID, n)
	for i := range ids {
		ids[i] = node.ID(i + 1)
	}
	c.ids = ids
	pop := func() []node.ID { return ids }
	for i := 0; i < n; i++ {
		arcs := arcsFor(i)
		c.net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			tn := &testNode{id: id, st: store.New(rng)}
			base := &stubSieve{arcs: arcs}
			sampler := membership.NewUniformView(id, rng, pop)
			tn.walker = randomwalk.New(id, rng, sampler, func(q randomwalk.Query) (bool, bool) {
				covers := tn.mgr.Covers(q.Point)
				_, hasKey := tn.st.GetAny(q.Key)
				return covers, hasKey && q.Key != ""
			})
			tn.mgr = New(id, rng, base, tn.st, tn.walker, sampler, cfg)
			c.nodes[id] = tn
			return tn
		})
	}
	return c
}

func mk(key string, seq uint64, val string) *tuple.Tuple {
	return &tuple.Tuple{Key: key, Value: []byte(val), Version: tuple.Version{Seq: seq, Writer: 1}}
}

func TestReconcileComputesPullAndPush(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := store.New(rng)
	st.Apply(mk("only-mine", 1, "x"))
	st.Apply(mk("both-mine-newer", 5, "x"))
	st.Apply(mk("both-theirs-newer", 1, "x"))
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	msg := SyncVersions{
		Arc: node.FullArc(),
		Versions: map[string]tuple.Version{
			"both-mine-newer":   {Seq: 2, Writer: 1},
			"both-theirs-newer": {Seq: 9, Writer: 1},
			"only-theirs":       {Seq: 1, Writer: 1},
		},
		Coverage: []node.Arc{node.FullArc()},
	}
	envs := m.reconcile(2, msg)
	var pulls []string
	var pushes []string
	for _, e := range envs {
		switch mm := e.Msg.(type) {
		case SyncPull:
			pulls = mm.Keys
		case SyncPush:
			for _, tp := range mm.Tuples {
				pushes = append(pushes, tp.Key)
			}
		}
	}
	wantPull := map[string]bool{"both-theirs-newer": true, "only-theirs": true}
	if len(pulls) != 2 || !wantPull[pulls[0]] || !wantPull[pulls[1]] {
		t.Fatalf("pulls = %v", pulls)
	}
	wantPush := map[string]bool{"only-mine": true, "both-mine-newer": true}
	if len(pushes) != 2 || !wantPush[pushes[0]] || !wantPush[pushes[1]] {
		t.Fatalf("pushes = %v", pushes)
	}
}

func TestSyncConvergesTwoHolders(t *testing.T) {
	// Nodes 1 and 2 cover the same arc but hold different tuples; the
	// periodic checks must converge their contents.
	arc := node.Arc{Start: 0, Width: 1 << 62}
	cfg := Config{Replication: 2, NEst: func() float64 { return 10 },
		Walks: 60, TTL: 4, CheckEvery: 4, Grace: 1000}
	c := newCluster(10, 3, cfg, func(i int) []node.Arc {
		if i < 2 {
			return []node.Arc{arc}
		}
		return nil
	})
	// Distinct keys that hash into the arc.
	var inArc []string
	for i := 0; len(inArc) < 6; i++ {
		k := fmt.Sprintf("key-%d", i)
		if arc.Contains(node.HashKey(k)) {
			inArc = append(inArc, k)
		}
	}
	for i, k := range inArc {
		if i%2 == 0 {
			c.nodes[1].st.Apply(mk(k, 1, "from1"))
		} else {
			c.nodes[2].st.Apply(mk(k, 1, "from2"))
		}
	}
	c.net.Run(80)
	for _, k := range inArc {
		if _, ok := c.nodes[1].st.GetAny(k); !ok {
			t.Fatalf("node 1 missing %q after sync", k)
		}
		if _, ok := c.nodes[2].st.GetAny(k); !ok {
			t.Fatalf("node 2 missing %q after sync", k)
		}
	}
	// The arc is wide enough to split: the digest-tree handshake ran.
	if c.nodes[1].mgr.Segments+c.nodes[2].mgr.Segments == 0 {
		t.Fatal("no sub-range digests were exchanged")
	}
}

func TestSyncPropagatesNewerVersions(t *testing.T) {
	arc := node.Arc{Start: 0, Width: 1 << 62}
	cfg := Config{Replication: 2, NEst: func() float64 { return 8 },
		Walks: 60, TTL: 4, CheckEvery: 4, Grace: 1000}
	c := newCluster(8, 5, cfg, func(i int) []node.Arc {
		if i < 2 {
			return []node.Arc{arc}
		}
		return nil
	})
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if arc.Contains(node.HashKey(k)) {
			key = k
			break
		}
	}
	c.nodes[1].st.Apply(mk(key, 1, "old"))
	c.nodes[2].st.Apply(mk(key, 7, "new"))
	c.net.Run(80)
	got, ok := c.nodes[1].st.Get(key)
	if !ok || string(got.Value) != "new" {
		t.Fatalf("node 1 has %v, want the newer version", got)
	}
}

func TestRecruitmentRestoresReplication(t *testing.T) {
	// One arc covered by a single node in a 40-node system with r=3:
	// after the grace window, recruitment must raise coverage to >= 3.
	arc := node.Arc{Start: 1 << 61, Width: 1 << 61}
	cfg := Config{Replication: 3, NEst: func() float64 { return 40 },
		Walks: 200, TTL: 5, CheckEvery: 5, WaitRounds: 8, Grace: 10}
	c := newCluster(40, 7, cfg, func(i int) []node.Arc {
		if i == 0 {
			return []node.Arc{arc}
		}
		return nil
	})
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if arc.Contains(node.HashKey(k)) {
			key = k
			break
		}
	}
	c.nodes[1].st.Apply(mk(key, 1, "payload"))
	c.net.Run(200)
	probe := arc.Start + node.Point(arc.Width/2)
	covering := 0
	holding := 0
	for _, tn := range c.nodes {
		if tn.mgr.Covers(probe) {
			covering++
		}
		if _, ok := tn.st.GetAny(key); ok {
			holding++
		}
	}
	if covering < 3 {
		t.Fatalf("%d nodes cover the arc after repair, want >= 3", covering)
	}
	if holding < 2 {
		t.Fatalf("%d nodes hold the tuple after repair, want >= 2", holding)
	}
	if c.nodes[1].mgr.Recruits == 0 {
		t.Fatal("no recruitment happened")
	}
}

func TestGraceWindowSuppressesEarlyRecruitment(t *testing.T) {
	arc := node.Arc{Start: 0, Width: 1 << 61}
	cfg := Config{Replication: 5, NEst: func() float64 { return 20 },
		Walks: 100, TTL: 4, CheckEvery: 4, WaitRounds: 7, Grace: 1 << 20}
	c := newCluster(20, 9, cfg, func(i int) []node.Arc {
		if i == 0 {
			return []node.Arc{arc}
		}
		return nil
	})
	c.net.Run(60)
	if got := c.nodes[1].mgr.Recruits; got != 0 {
		t.Fatalf("recruited %d times inside grace window", got)
	}
}

func TestAdoptAppliesDataAndExtendsResponsibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := store.New(rng)
	m := New(1, rng, &stubSieve{}, st, nil, nil, Config{})
	arc := node.Arc{Start: 100, Width: 1000}
	tup := mk("adopt-key", 3, "v")
	m.Handle(0, 2, AdoptReq{Arc: arc, Tuples: []*tuple.Tuple{tup}})
	if !m.Covers(105) {
		t.Fatal("adopted arc not covered")
	}
	if m.AdoptedCount() != 1 {
		t.Fatalf("adopted = %d", m.AdoptedCount())
	}
	if _, ok := st.GetAny("adopt-key"); !ok {
		t.Fatal("adopted tuple not stored")
	}
	// Duplicate adoption of the same arc must not double-register.
	m.Handle(0, 2, AdoptReq{Arc: arc, Tuples: nil})
	if m.AdoptedCount() != 1 {
		t.Fatalf("adopted after dup = %d", m.AdoptedCount())
	}
}

// TestInvalidPushedTuplesAreRefused: a push of tuples that fail
// tuple.Validate — an empty key, a zero version — leaves a Manager that
// covers the whole ring with an empty store, and each refused tuple is
// counted once. Every repair message that ships tuples refuses an
// invalid one — nil, an empty key, a zero version, a sequence above the
// ceiling — and still applies the valid one beside it.
func TestInvalidPushedTuplesAreRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	st := store.New(rng)
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	m.Handle(0, 2, SyncPush{Tuples: []*tuple.Tuple{{Key: ""}, {Key: "k"}}})
	if st.Len() != 0 {
		t.Fatalf("store holds %d tuples after an invalid push, want 0", st.Len())
	}
	if m.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", m.Rejected)
	}

	bad := func() []*tuple.Tuple {
		return []*tuple.Tuple{nil, {Key: "", Version: tuple.Version{Seq: 1, Writer: 2}},
			{Key: "zero"}, {Key: "huge", Version: tuple.Version{Seq: tuple.MaxSeq + 1, Writer: 2}}}
	}
	for _, tc := range []struct {
		name string
		msg  func(good *tuple.Tuple) any
	}{
		{"sync push", func(g *tuple.Tuple) any { return SyncPush{Tuples: append(bad(), g)} }},
		{"adopt", func(g *tuple.Tuple) any {
			return AdoptReq{Arc: node.Arc{Start: g.Point(), Width: 1}, Tuples: append(bad(), g)}
		}},
		{"supersede newer", func(g *tuple.Tuple) any { return SupersedeResp{Newer: append(bad(), g)} }},
	} {
		rng := rand.New(rand.NewSource(16))
		st := store.New(rng)
		m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
		st.Apply(mk("good", 1, "old")) // supersession refreshes only held keys
		m.Handle(0, 2, tc.msg(mk("good", 2, "new")))
		if got, ok := st.GetAny("good"); !ok || got.Version.Seq != 2 || st.Len() != 1 {
			t.Errorf("%s: store holds %d tuples, good at %v; want only good at seq 2", tc.name, st.Len(), got)
		}
		if m.Rejected != 4 {
			t.Errorf("%s: Rejected = %d, want 4", tc.name, m.Rejected)
		}
	}
}

func TestKeepCombinesBaseAndAdopted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := store.New(rng)
	// Base sieve covers nothing.
	m := New(1, rng, &stubSieve{}, st, nil, nil, Config{})
	tup := mk("some-key", 1, "v")
	if m.Keep(tup) {
		t.Fatal("empty responsibility kept a tuple")
	}
	m.Handle(0, 2, AdoptReq{Arc: node.Arc{Start: tup.Point(), Width: 10}, Tuples: nil})
	if !m.Keep(tup) {
		t.Fatal("adopted arc not consulted by Keep")
	}
}

func TestSyncReqEqualDigestIsSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	st := store.New(rng)
	st.Apply(mk("k", 1, "v"))
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	digest := st.DigestArc(node.FullArc())
	if envs := m.Handle(0, 2, SyncReq{Arc: node.FullArc(), Digest: digest}); envs != nil {
		t.Fatalf("equal digests produced traffic: %v", envs)
	}
	if envs := m.Handle(0, 2, SyncReq{Arc: node.FullArc(), Digest: digest + 1}); envs == nil {
		t.Fatal("differing digests produced no version exchange")
	}
}

func TestSegSyncForeignSegmentsAreClean(t *testing.T) {
	// A peer that neither covers nor stores anything of a requested range
	// must answer nothing: content it refuses to hold is not its debt, and
	// exchanging versions for it would keep partially-overlapping peers
	// re-syncing forever.
	rng := rand.New(rand.NewSource(21))
	st := store.New(rng)
	m := New(1, rng, &stubSieve{}, st, nil, nil, Config{})
	arc := node.Arc{Start: 0, Width: 1 << 40}
	digests := make([]uint64, 8)
	for i := range digests {
		digests[i] = uint64(i + 1) // requester has content everywhere
	}
	if envs := m.Handle(0, 2, SegSyncReq{Arc: arc, Digests: digests}); len(envs) != 0 {
		t.Fatalf("got %d envelopes for foreign segments, want none: %v", len(envs), envs)
	}
}

func TestSupersessionDropsConfirmedBystander(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	key := "sup-key"
	arc := node.Arc{Start: node.HashKey(key), Width: 1024}
	cfg := Config{}

	keeperSt := store.New(rng)
	keeper := New(2, rng, &stubSieve{arcs: []node.Arc{arc}}, keeperSt, nil, nil, cfg)
	keeperSt.Apply(mk(key, 3, "latest"))

	bystSt := store.New(rng)
	byst := New(1, rng, &stubSieve{}, bystSt, nil, nil, cfg)
	bystSt.Apply(mk(key, 2, "stale"))

	// Keeper holds v3 >= hinted v2: answers Held.
	envs := keeper.Handle(0, 1, SupersedeQuery{Hints: []KeyVersion{{Key: key, Version: tuple.Version{Seq: 2, Writer: 1}}}})
	if len(envs) != 1 {
		t.Fatalf("keeper sent %d envelopes, want 1", len(envs))
	}
	resp, ok := envs[0].Msg.(SupersedeResp)
	if !ok || len(resp.Held) != 1 || resp.Held[0].Version.Seq != 3 {
		t.Fatalf("keeper answered %v, want Held at v3", envs[0].Msg)
	}
	// The bystander drops its copy and records the floor.
	byst.Handle(1, 2, resp)
	if _, held := bystSt.GetAny(key); held {
		t.Fatal("bystander copy survived a Held answer")
	}
	if byst.Superseded != 1 {
		t.Fatalf("Superseded = %d, want 1", byst.Superseded)
	}
	// Neither a replayed push nor a late gossip redelivery resurrects it.
	byst.Handle(2, 3, SyncPush{Tuples: []*tuple.Tuple{mk(key, 2, "replay")}})
	if _, held := bystSt.GetAny(key); held {
		t.Fatal("replayed push resurrected a superseded copy")
	}
	if bystSt.Apply(mk(key, 3, "gossip-replay")) {
		t.Fatal("redelivery at the floor version resurrected a superseded copy")
	}
}

func TestSupersessionWantPullsBystanderCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	key := "want-key"
	arc := node.Arc{Start: node.HashKey(key), Width: 1024}
	cfg := Config{}

	keeperSt := store.New(rng)
	keeper := New(2, rng, &stubSieve{arcs: []node.Arc{arc}}, keeperSt, nil, nil, cfg)
	keeperSt.Apply(mk(key, 1, "old"))

	bystSt := store.New(rng)
	byst := New(1, rng, &stubSieve{}, bystSt, nil, nil, cfg)
	bystSt.Apply(mk(key, 4, "newest"))

	envs := keeper.Handle(0, 1, SupersedeQuery{Hints: []KeyVersion{{Key: key, Version: tuple.Version{Seq: 4, Writer: 1}}}})
	resp := envs[0].Msg.(SupersedeResp)
	if len(resp.Want) != 1 || resp.Want[0] != key {
		t.Fatalf("keeper answered %v, want Want(%s)", resp, key)
	}
	// The bystander pushes its newer copy; the keeper applies it.
	push := byst.Handle(1, 2, resp)
	if len(push) != 1 {
		t.Fatalf("bystander sent %d envelopes, want 1 push", len(push))
	}
	keeper.Handle(2, 1, push[0].Msg)
	if got, ok := keeperSt.GetAny(key); !ok || got.Version.Seq != 4 {
		t.Fatalf("keeper has %v, want v4", got)
	}
}

func TestSupersessionNewerRefreshesFellowBystander(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	key := "fresh-key"
	cfg := Config{}

	// Neither node covers the key: both are bystanders.
	aSt := store.New(rng)
	a := New(1, rng, &stubSieve{}, aSt, nil, nil, cfg)
	aSt.Apply(mk(key, 2, "stale"))

	bSt := store.New(rng)
	b := New(2, rng, &stubSieve{}, bSt, nil, nil, cfg)
	bSt.Apply(mk(key, 5, "latest"))

	envs := b.Handle(0, 1, SupersedeQuery{Hints: []KeyVersion{{Key: key, Version: tuple.Version{Seq: 2, Writer: 1}}}})
	resp := envs[0].Msg.(SupersedeResp)
	if len(resp.Newer) != 1 || resp.Newer[0].Version.Seq != 5 {
		t.Fatalf("fellow holder answered %v, want Newer at v5", resp)
	}
	a.Handle(1, 2, resp)
	if got, ok := aSt.GetAny(key); !ok || got.Version.Seq != 5 {
		t.Fatalf("bystander refreshed to %v, want v5", got)
	}
	// A refresh must never resurrect: drop the copy, replay the response.
	aSt.Discard(key, tuple.Version{Seq: 5, Writer: 1})
	a.Handle(2, 2, resp)
	if _, held := aSt.GetAny(key); held {
		t.Fatal("late Newer response resurrected a discarded copy")
	}
}

func TestOrphanDiscardExactlyOnceNoResurrection(t *testing.T) {
	// Satellite: an orphaned last-resort copy is handed off and released
	// exactly once, never resurrected by a later gossip hint. Node 1
	// holds a key outside its (empty) responsibility; nodes 2..4 cover
	// it. The orphan sweep discovers them and hands the copy off; the
	// release itself happens through the supersession exchange — only a
	// keeper explicitly confirming an equal-or-newer version retires the
	// copy (walk samples alone prove coverage, not possession) — and the
	// recorded floor keeps replayed traffic from bringing it back.
	arc := node.Arc{Start: 0, Width: 1 << 62}
	cfg := Config{Replication: 3, NEst: func() float64 { return 12 },
		Walks: 80, TTL: 4, CheckEvery: 4, WaitRounds: 7, Grace: 1000,
		OrphanBatch: 4}
	c := newCluster(12, 31, cfg, func(i int) []node.Arc {
		if i >= 1 && i <= 3 {
			return []node.Arc{arc}
		}
		return nil
	})
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if arc.Contains(node.HashKey(k)) {
			key = k
			break
		}
	}
	orphanTuple := mk(key, 2, "payload")
	c.nodes[1].st.Apply(orphanTuple) // node 1 covers nothing: a pure last-resort copy
	c.net.Run(120)
	// The copy moved to coverers and left the origin exactly once.
	holding := 0
	for id, tn := range c.nodes {
		if _, ok := tn.st.GetAny(key); ok {
			if id == 1 {
				t.Fatal("orphan copy still on the origin after handoff")
			}
			holding++
		}
	}
	if holding < cfg.Replication {
		t.Fatalf("%d nodes hold the tuple after handoff, want >= %d", holding, cfg.Replication)
	}
	// The copy reached the keepers through the supersession Want path
	// (hint → keeper asks → origin pushes) and/or the walk handoff, and
	// was released exactly once, on a keeper-confirmed Held answer.
	if c.nodes[1].mgr.Superseded != 1 {
		t.Fatalf("Superseded = %d, want exactly 1 keeper-confirmed release", c.nodes[1].mgr.Superseded)
	}
	// A later gossip hint (redelivered push) must not resurrect it.
	c.nodes[1].mgr.Handle(c.net.Round(), 5, SyncPush{Tuples: []*tuple.Tuple{mk(key, 2, "replay")}})
	if _, ok := c.nodes[1].st.GetAny(key); ok {
		t.Fatal("late push resurrected the released orphan copy")
	}
	if !c.nodes[1].st.Apply(mk(key, 3, "genuinely-new")) {
		t.Fatal("a genuinely newer write was refused by the floor")
	}
}

func TestFloorLiftsWhenResponsibilityReturns(t *testing.T) {
	// A node that discarded a bystander copy under a supersession floor
	// must be able to re-accept that very version once it becomes
	// responsible for the key again — via adoption or a keeper push —
	// or the range could never restore its replica count from the
	// surviving copies.
	rng := rand.New(rand.NewSource(33))
	key := "floor-key"
	cfg := Config{}

	st := store.New(rng)
	m := New(1, rng, &stubSieve{}, st, nil, nil, cfg)
	st.Apply(mk(key, 5, "v5"))
	st.Discard(key, tuple.Version{Seq: 5, Writer: 1})

	// While a bystander, the replay stays refused.
	m.Handle(0, 2, SyncPush{Tuples: []*tuple.Tuple{mk(key, 5, "replay")}})
	if _, held := st.GetAny(key); held {
		t.Fatal("bystander replay slipped past the floor")
	}
	// Adoption of an arc containing the key re-admits the same version.
	m.Handle(1, 2, AdoptReq{
		Arc:    node.Arc{Start: node.HashKey(key), Width: 10},
		Tuples: []*tuple.Tuple{mk(key, 5, "restored")},
	})
	if got, ok := st.GetAny(key); !ok || got.Version.Seq != 5 {
		t.Fatalf("adopted copy = %v, want v5 re-admitted past the floor", got)
	}

	// Same via a sync push to a node whose sieve grew over the key.
	st2 := store.New(rng)
	m2 := New(2, rng, &stubSieve{arcs: []node.Arc{{Start: node.HashKey(key), Width: 10}}}, st2, nil, nil, cfg)
	st2.Apply(mk(key, 5, "v5"))
	st2.Discard(key, tuple.Version{Seq: 5, Writer: 1})
	m2.Handle(2, 3, SyncPush{Tuples: []*tuple.Tuple{mk(key, 5, "restored")}})
	if got, ok := st2.GetAny(key); !ok || got.Version.Seq != 5 {
		t.Fatalf("keeper push = %v, want v5 re-admitted past the floor", got)
	}
}

func TestSupersessionNeedsTwoDistinctKeeperConfirmations(t *testing.T) {
	// At replication > 1 a bystander copy is only released after two
	// *different* keepers confirm an equal-or-newer version: a single
	// confirming keeper could crash before range sync spreads the
	// version, and this copy may be the only other one.
	rng := rand.New(rand.NewSource(35))
	key := "quorum-key"
	cfg := Config{Replication: 3}
	st := store.New(rng)
	m := New(1, rng, &stubSieve{}, st, nil, nil, cfg)
	st.Apply(mk(key, 2, "copy"))

	held := SupersedeResp{Held: []KeyVersion{{Key: key, Version: tuple.Version{Seq: 3, Writer: 1}}}}
	m.Handle(0, 2, held) // first keeper confirms
	if _, ok := st.GetAny(key); !ok {
		t.Fatal("copy released after a single confirmation")
	}
	m.Handle(1, 2, held) // same keeper again: still only one witness
	if _, ok := st.GetAny(key); !ok {
		t.Fatal("copy released on a repeated confirmation from the same keeper")
	}
	m.Handle(2, 3, held) // second, distinct keeper
	if _, ok := st.GetAny(key); ok {
		t.Fatal("copy survived two distinct keeper confirmations")
	}
	if m.Superseded != 1 {
		t.Fatalf("Superseded = %d, want 1", m.Superseded)
	}
}

// TestHeldAboveTheCeilingIsRefused: Held answers at a sequence above
// tuple.MaxSeq, even from two distinct keepers, neither discard a
// bystander copy nor leave a supersession floor that would refuse the
// key's later valid writes; each one counts in Rejected.
func TestHeldAboveTheCeilingIsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	key := "ceiling-key"
	st := store.New(rng)
	m := New(1, rng, &stubSieve{}, st, nil, nil, Config{Replication: 3})
	st.Apply(mk(key, 2, "copy"))

	held := SupersedeResp{Held: []KeyVersion{{Key: key, Version: tuple.Version{Seq: 1<<64 - 1, Writer: 9}}}}
	m.Handle(0, 2, held)
	m.Handle(1, 3, held)
	if got, ok := st.GetAny(key); !ok || got.Version.Seq != 2 {
		t.Fatalf("copy = %v, %v after Held above the ceiling; want kept at seq 2", got, ok)
	}
	if m.Superseded != 0 || m.Rejected != 2 {
		t.Fatalf("Superseded = %d, Rejected = %d; want 0 and 2", m.Superseded, m.Rejected)
	}
	if !st.Apply(mk(key, 5, "later")) {
		t.Fatal("a later valid write was refused")
	}
}

// TestSyncVersionsAboveTheCeilingAreRefused: a range-sync version list
// naming sequences above tuple.MaxSeq — for a key the node holds and for
// one it only covers — pulls nothing, pushes nothing and is no evidence
// of divergence; each such version counts in Rejected, and the valid
// entry beside them is reconciled as usual.
func TestSyncVersionsAboveTheCeilingAreRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	st := store.New(rng)
	st.Apply(mk("held", 2, "v"))
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	huge := tuple.Version{Seq: tuple.MaxSeq + 1, Writer: 2}
	envs := m.Handle(0, 2, SyncVersions{
		Arc:      node.FullArc(),
		Versions: map[string]tuple.Version{"held": huge, "covered": {Seq: 1<<64 - 1, Writer: 2}},
		Coverage: []node.Arc{node.FullArc()},
	})
	if len(envs) != 0 || m.diverged || m.Rejected != 2 {
		t.Fatalf("envelopes %v, diverged %v, Rejected %d; want none, false, 2", envs, m.diverged, m.Rejected)
	}
	envs = m.Handle(1, 2, SyncVersions{
		Arc:      node.FullArc(),
		Versions: map[string]tuple.Version{"held": huge, "fresh": {Seq: 1, Writer: 2}},
		Coverage: []node.Arc{node.FullArc()},
	})
	if len(envs) != 1 || m.Rejected != 3 {
		t.Fatalf("envelopes %v, Rejected %d; want one pull of fresh and 3", envs, m.Rejected)
	}
	if pull, ok := envs[0].Msg.(SyncPull); !ok || len(pull.Keys) != 1 || pull.Keys[0] != "fresh" {
		t.Fatalf("reply %#v, want a pull of fresh alone", envs[0].Msg)
	}
}

// TestSupersedeHintAboveTheCeilingIsRefused: a bystander hint whose
// sequence is above tuple.MaxSeq draws no Want from a keeper that
// covers the key, nor from a fellow holder, and is no evidence of
// divergence at either; each counts in Rejected.
func TestSupersedeHintAboveTheCeilingIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		arcs []node.Arc
	}{{"keeper", []node.Arc{node.FullArc()}}, {"fellow holder", nil}} {
		rng := rand.New(rand.NewSource(38))
		st := store.New(rng)
		st.Apply(mk("held", 2, "v"))
		m := New(1, rng, &stubSieve{arcs: tc.arcs}, st, nil, nil, Config{Replication: 3})
		envs := m.Handle(0, 2, SupersedeQuery{Hints: []KeyVersion{
			{Key: "held", Version: tuple.Version{Seq: tuple.MaxSeq + 1, Writer: 2}},
		}})
		if len(envs) != 0 || m.diverged || m.Rejected != 1 {
			t.Errorf("%s: envelopes %v, diverged %v, Rejected %d; want none, false, 1", tc.name, envs, m.diverged, m.Rejected)
		}
	}
}

func TestSupersedeSweepBackoffSchedule(t *testing.T) {
	// With nothing diverging, consecutive sweeps double their gap from
	// supersedeEvery up to supersedeMaxEvery; a divergence signal pulls
	// the next sweep forward and restarts the ladder.
	rng := rand.New(rand.NewSource(9))
	st := store.New(rng)
	sampler := membership.NewUniformView(1, rng, func() []node.ID { return []node.ID{1, 2} })
	walker := randomwalk.New(1, rng, sampler, func(randomwalk.Query) (bool, bool) { return false, false })
	m := New(1, rng, &stubSieve{}, st, walker, sampler, Config{Replication: 3})
	st.Apply(mk("held-key", 1, "v")) // a bystander copy: pushes refresh it in place
	m.Start(0)
	// The first sweep (round 0) already doubles the gap, then the gap
	// keeps doubling to the cap and stays there for two more sweeps.
	want := []sim.Round{0}
	for gap := sim.Round(2 * supersedeEvery); len(want) < 10; gap = min(2*gap, supersedeMaxEvery) {
		want = append(want, want[len(want)-1]+gap)
	}
	end := want[len(want)-1]
	var sweeps []sim.Round
	last := int64(0)
	for now := sim.Round(0); now <= end; now++ {
		m.Tick(now)
		if v := m.Sweeps; v != last {
			sweeps = append(sweeps, now)
			last = v
		}
	}
	if fmt.Sprint(sweeps) != fmt.Sprint(want) {
		t.Fatalf("sweep rounds = %v, want %v", sweeps, want)
	}
	if got := want[len(want)-1] - want[len(want)-2]; got != supersedeMaxEvery {
		t.Fatalf("last gap = %d, want the cap %d", got, supersedeMaxEvery)
	}
	// Divergence three rounds later (a push applies a version we lacked):
	// the next sweep fires within supersedeEvery rounds, not a full capped
	// gap away.
	at := end + 3
	m.Handle(at, 2, SyncPush{Tuples: []*tuple.Tuple{mk("held-key", 2, "v")}})
	if !m.diverged {
		t.Fatal("applied push did not flag divergence")
	}
	if m.supersedeNext != at+supersedeEvery {
		t.Fatalf("supersedeNext = %d after divergence at %d, want %d", m.supersedeNext, at, at+supersedeEvery)
	}
	for now := end + 1; now < at+2*supersedeEvery+1; now++ {
		m.Tick(now)
	}
	// Sweeps fired at at+supersedeEvery (gap reset) and supersedeEvery
	// rounds after that, proving the ladder restarted from the bottom.
	if m.Sweeps != last+2 {
		t.Fatalf("Sweeps = %d after reset window, want %d", m.Sweeps, last+2)
	}
}

func TestSupersedeSweepDecaysOnConvergedCluster(t *testing.T) {
	// Four keepers of the full ring hold identical content: every hint
	// draws an equal-version Held answer, which is the converged steady
	// state and must NOT hold the sweep at full cadence. Over 300 rounds
	// a uniform supersedeEvery cadence would fire 75 sweeps per node; the
	// backoff ladder (4,8,...,256 capped) fires under 10.
	cfg := Config{Replication: 3, NEst: func() float64 { return 4 },
		Walks: 8, TTL: 3, CheckEvery: 10, Grace: 1000}
	full := []node.Arc{node.FullArc()}
	c := newCluster(4, 17, cfg, func(i int) []node.Arc { return full })
	for _, tn := range c.nodes {
		for i := 0; i < 12; i++ {
			tn.st.Apply(mk(fmt.Sprintf("conv-%d", i), 3, "settled"))
		}
	}
	c.net.Run(300)
	for id, tn := range c.nodes {
		if got := tn.mgr.Sweeps; got > 12 {
			t.Fatalf("node %d fired %d sweeps over 300 converged rounds, want backoff decay (<= 12)", id, got)
		}
		if got := tn.mgr.Sweeps; got < 3 {
			t.Fatalf("node %d fired only %d sweeps, backoff should not stall the sweep entirely", id, got)
		}
	}
}
