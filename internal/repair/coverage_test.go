package repair

import (
	"fmt"
	"math/rand"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/store"
	"datadroplets/internal/tuple"
)

// exchange routes one manager's envelopes to the other until both sides
// go quiet, returning every envelope that crossed the wire. ids must map
// each manager to its node ID.
func exchange(now sim.Round, a, b *Manager, aID, bID node.ID, opener []sim.Envelope) []sim.Envelope {
	var all []sim.Envelope
	pending := map[node.ID][]sim.Envelope{bID: opener}
	for len(pending[aID]) > 0 || len(pending[bID]) > 0 {
		for _, to := range []node.ID{aID, bID} {
			batch := pending[to]
			pending[to] = nil
			for _, env := range batch {
				all = append(all, env)
				var out []sim.Envelope
				if to == aID {
					out = a.Handle(now, bID, env.Msg)
					pending[bID] = append(pending[bID], out...)
				} else {
					out = b.Handle(now, aID, env.Msg)
					pending[aID] = append(pending[aID], out...)
				}
			}
		}
	}
	return all
}

// countPushedTuples sums the tuples carried by SyncPush envelopes.
func countPushedTuples(envs []sim.Envelope) int {
	n := 0
	for _, e := range envs {
		if p, ok := e.Msg.(SyncPush); ok {
			n += len(p.Tuples)
		}
	}
	return n
}

// overlapPeers builds the partially-overlapping converged pair the
// coverage gate is about: A covers the left half of the ring, B a half
// shifted right so its start falls *inside* one of A's digest segments
// (the futile-boundary-leaf shape: that segment stays digest-dirty
// forever because only A covers its left part). The overlap content is
// identical on both sides; A additionally holds keys only it covers.
// The population keeps B's share of the straddling segment under
// segLeafKeys, so B answers it as a version leaf (the futile-exchange
// shape) rather than recursing past it.
func overlapPeers(t testing.TB) (a, b *Manager, aID, bID node.ID, arcA node.Arc) {
	half := ^uint64(0) / 2
	arcA = node.Arc{Start: 0, Width: half}
	// Mid-segment start: half/2 is exactly A's segment-4 boundary (8
	// segments), so shift by another half segment plus an odd nudge.
	arcB := node.Arc{Start: node.Point(half/2 + half/16 + 12345), Width: half}
	cfg := Config{Replication: 2}
	aSt := store.New(rand.New(rand.NewSource(2)))
	bSt := store.New(rand.New(rand.NewSource(3)))
	a = New(1, rand.New(rand.NewSource(4)), &stubSieve{arcs: []node.Arc{arcA}}, aSt, nil, nil, cfg)
	b = New(2, rand.New(rand.NewSource(5)), &stubSieve{arcs: []node.Arc{arcB}}, bSt, nil, nil, cfg)
	aOnly := 0
	for i := 0; i < 256; i++ {
		tp := mk(fmt.Sprintf("key-%05d", i), 1, "v")
		p := tp.Point()
		if !arcA.Contains(p) {
			continue
		}
		aSt.Apply(tp)
		if arcB.Contains(p) {
			bSt.Apply(tp) // shared overlap: converged
		} else {
			aOnly++
		}
	}
	if aOnly == 0 {
		t.Fatal("bad fixture: no A-only keys")
	}
	return a, b, 1, 2, arcA
}

// TestCoverageAwareSyncSkipsForeignPushes is the satellite's core claim:
// between partially-overlapping converged peers, a full segmented sync
// round moves zero tuples — the boundary-leaf replies carry B's coverage
// and A keeps the content only it is responsible for at home, instead of
// re-shipping it to be refused every pass.
func TestCoverageAwareSyncSkipsForeignPushes(t *testing.T) {
	a, b, aID, bID, arcA := overlapPeers(t)
	for round := 0; round < 3; round++ {
		opener := []sim.Envelope{{To: bID, Msg: a.syncMsg(arcA)}}
		wire := exchange(sim.Round(round), a, b, aID, bID, opener)
		if pushed := countPushedTuples(wire); pushed != 0 {
			t.Fatalf("round %d: %d tuples pushed between converged overlapping peers, want 0", round, pushed)
		}
		if pulls := func() int {
			n := 0
			for _, e := range wire {
				if p, ok := e.Msg.(SyncPull); ok {
					n += len(p.Keys)
				}
			}
			return n
		}(); pulls != 0 {
			t.Fatalf("round %d: %d keys pulled, want 0", round, pulls)
		}
	}
	if a.CoverageSkips == 0 {
		t.Fatal("no pushes were coverage-skipped — the boundary leaves never exercised the gate")
	}
	if a.Pushed != 0 || b.Pushed != 0 {
		t.Fatalf("Pushed counters a=%d b=%d, want 0", a.Pushed, b.Pushed)
	}
}

// TestCoverageGateStillRefreshesHeldCopies: the gate only suppresses
// pushes of content the peer neither covers nor holds. A key the peer
// reports holding at an older version is refreshed regardless of
// coverage — staleness repair must not regress.
func TestCoverageGateStillRefreshesHeldCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := store.New(rng)
	st.Apply(mk("stale-at-peer", 5, "new"))
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	out := m.reconcile(2, SyncVersions{
		Arc:      node.FullArc(),
		Versions: map[string]tuple.Version{"stale-at-peer": {Seq: 1, Writer: 1}},
		Coverage: []node.Arc{}, // non-nil, covers nothing
	})
	if pushed := countPushedTuples(out); pushed != 1 {
		t.Fatalf("stale held copy not refreshed under empty coverage: pushed %d, want 1", pushed)
	}
}

// TestSegSyncServesWithoutFullScan pins the tentpole on the repair side:
// answering a segmented sync for a small arc must not scan the whole
// store. A converged peer's request (all segments clean) is the steady
// state — it is answered with nothing, and the store serve counters move
// by only a sliver of the population.
func TestSegSyncServesWithoutFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := store.New(rng)
	const n = 50_000
	for i := 0; i < n; i++ {
		st.Apply(mk(fmt.Sprintf("key-%06d", i), 1, "v"))
	}
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	arc := node.Arc{Start: 7, Width: ^uint64(0) / 16}
	digests, _ := st.SegmentDigests(arc, 8) // the peer is converged: same vector
	_, scanned0, _ := st.ServeStats()
	out := m.handleSegSync(2, SegSyncReq{Arc: arc, Digests: digests})
	_, scanned1, _ := st.ServeStats()
	if len(out) != 0 {
		t.Fatalf("clean compare produced %d envelopes, want 0: %#v", len(out), out)
	}
	if perServe := scanned1 - scanned0; perServe > n/20 {
		t.Fatalf("clean segsync scanned %d of %d entries — serving is not incremental", perServe, n)
	}
}

// buildServeManager loads a Manager whose store holds n keys and returns
// it with a converged small-arc request for benchmarking.
func buildServeManager(tb testing.TB, n int) (*Manager, SegSyncReq) {
	tb.Helper()
	rng := rand.New(rand.NewSource(21))
	st := store.New(rng)
	for i := 0; i < n; i++ {
		st.Apply(&tuple.Tuple{
			Key:     fmt.Sprintf("user:%07d", i),
			Value:   []byte("v"),
			Version: tuple.Version{Seq: uint64(1 + i%5), Writer: node.ID(1 + i%7)},
		})
	}
	m := New(1, rng, &stubSieve{arcs: []node.Arc{node.FullArc()}}, st, nil, nil, Config{})
	arc := node.Arc{Start: 0x12345678_9abcdef0, Width: ^uint64(0) / 16}
	digests, _ := st.SegmentDigests(arc, 8)
	return m, SegSyncReq{Arc: arc, Digests: digests}
}

// BenchmarkSegSyncServe measures answering a converged peer's segmented
// sync for a ≤1/16 arc over a million-key store — the steady-state
// serve cost of every range check between converged holders. Gated in
// CI with an allocation ceiling.
func BenchmarkSegSyncServe(b *testing.B) {
	m, req := buildServeManager(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.handleSegSync(2, req); len(out) != 0 {
			b.Fatalf("unexpected reply shape: %d envelopes", len(out))
		}
	}
}
