// Package repair maintains redundancy in the epidemic persistent-state
// layer, following §III-A's recipe to the letter:
//
//  1. A node periodically estimates how many nodes are responsible for
//     its sieve ranges using random walks — at sieve (range) granularity,
//     not per tuple ("obtaining an estimate of how many nodes have a
//     given sieve ... suffices. This drastically reduces random walk
//     length and the number of random walks needed").
//  2. Holders discovered by the walks synchronise directly: digests
//     first, then key-level version exchange, then tuple transfer ("have
//     nodes responsible to the same key space (discovered by the random
//     walk procedure) check tuple redundancy directly between them and
//     restore redundancy as necessary").
//  3. Replica deficits only trigger re-replication after a grace window,
//     because churn is dominated by transient reboots ("redundancy
//     constrains can be relaxed as the vast majority of nodes are
//     expected to recover within a small time window").
//  4. When a deficit persists, the node recruits a random peer to adopt
//     the range — "it is only a matter of adjusting the sieve grain" —
//     shipping the current range content along.
package repair

import (
	"math/rand"
	"slices"
	"sort"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/sieve"
	"datadroplets/internal/sim"
	"datadroplets/internal/store"
	"datadroplets/internal/tuple"
)

// Config tunes the redundancy manager's walk estimation and recruitment
// policy — the values deployments and experiments actually vary. The
// sync, supersession and scheduling parameters are the constants below.
type Config struct {
	// Replication is the target copy count r.
	Replication int
	// NEst supplies the system-size estimate N̂.
	NEst func() float64
	// Walks is the number of random walks per range check. Zero means 32.
	Walks int
	// TTL is the walk length. Zero means 8.
	TTL int
	// CheckEvery is the number of rounds between range checks (each
	// check probes one of the node's arcs, round-robin). Zero means 10.
	CheckEvery int
	// WaitRounds is how long to wait for walk results before judging.
	// Zero means TTL+4.
	WaitRounds int
	// Grace is how many rounds a deficit must persist before the node
	// recruits — the transient-churn allowance. Zero means 20.
	Grace int
	// OrphanBatch bounds how many orphaned tuples (stored locally but no
	// longer inside the node's responsibility, e.g. after the sieve
	// narrowed with a growing N̂) are checked per cycle. Zero means 4.
	OrphanBatch int
}

// The one set of sync, supersession and scheduling parameters every
// deployment runs — simulator, facade and live server alike. They are
// the values the fault-scenario suite validates.
const (
	// segBits: range sync summarises an arc as 2^segBits sub-range
	// digests and recurses only into mismatching segments (a digest tree
	// over the arc).
	segBits = 3
	// segLeafKeys is the segment size (in locally stored keys) at which
	// recursion stops and key-level versions are exchanged.
	segLeafKeys = 16
	// syncPeers bounds how many discovered holders are synced per check.
	syncPeers = 2
	// maxPush bounds tuples per transfer message.
	maxPush = 512
	// orphanRecheck is how many rounds an orphan rests after being handed
	// off before it is re-examined.
	orphanRecheck = 100

	// Retention-aware supersession: every supersedeEvery rounds the node
	// sends (key, version) hints for a window of supersedeBatch stored
	// keys to supersedePeers sampled peers. A responsible peer holding an
	// equal-or-newer version lets a *bystander* copy (held outside the
	// node's responsibility, e.g. a write publisher's last-resort
	// retention) drop; a peer that is behind gets the newer tuple pushed;
	// and any peer holding strictly newer refreshes the hinted copy in
	// place — version-level anti-entropy that reaches even keys in
	// rarely-checked adopted slivers. Only a fraction of peers covers a
	// given key, so fanning one batch out to a few peers multiplies the
	// chance of reaching a keeper per sweep.
	supersedeEvery = 4
	supersedeBatch = 16
	supersedePeers = 4
	// supersedeMaxEvery caps the sweep backoff: the gap starts at
	// supersedeEvery and doubles after every sweep that surfaces no
	// divergence, so a converged idle cluster's supersession traffic
	// decays toward zero; any observed mismatch (a copy retired, a peer
	// behind, a newer version learned) snaps it back to supersedeEvery.
	supersedeMaxEvery = 64 * supersedeEvery
)

func (c Config) normalized() Config {
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.Walks == 0 {
		c.Walks = 32
	}
	if c.TTL == 0 {
		c.TTL = 8
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
	if c.WaitRounds == 0 {
		c.WaitRounds = c.TTL + 4
	}
	if c.Grace == 0 {
		c.Grace = 20
	}
	if c.OrphanBatch == 0 {
		c.OrphanBatch = 4
	}
	return c
}

// Protocol messages.
type (
	// SyncReq opens a range synchronisation: "here is my digest for arc".
	SyncReq struct {
		Arc    node.Arc
		Digest uint64
	}
	// SyncVersions answers a digest mismatch with key-level versions.
	// Coverage lists the responder's responsibility arcs at reply time:
	// the receiver skips pushing content whose point the responder does
	// not cover (the responder would refuse it as a would-be bystander
	// copy anyway), which is what stops partially-overlapping peers from
	// re-shipping boundary content forever.
	SyncVersions struct {
		Arc      node.Arc
		Versions map[string]tuple.Version
		Coverage []node.Arc
	}
	// SyncPull requests full tuples for keys.
	SyncPull struct{ Keys []string }
	// SyncPush delivers tuples; the receiver applies them under LWW.
	SyncPush struct{ Tuples []*tuple.Tuple }
	// AdoptReq recruits the receiver to take responsibility for an arc,
	// shipping the sender's content for it.
	AdoptReq struct {
		Arc    node.Arc
		Tuples []*tuple.Tuple
	}

	// SegSyncReq opens a segmented synchronisation: the arc summarised
	// as equal sub-range digests. The receiver compares against its own
	// segment vector and answers mismatching segments with either
	// key-level versions (small segments) or a recursive SegSyncReq one
	// level down the digest tree; a clean comparison sends nothing.
	SegSyncReq struct {
		Arc     node.Arc
		Digests []uint64
	}

	// KeyVersion is one supersession hint: "I hold this version of this
	// key" — what the receiver answers depends on which side is
	// responsible and who is fresher (see SupersedeResp).
	KeyVersion struct {
		Key     string
		Version tuple.Version
	}
	// SupersedeQuery carries bystander (key, version) hints to a peer.
	SupersedeQuery struct {
		Hints []KeyVersion
	}
	// SupersedeResp answers the hints the receiver can say something
	// useful about: Held lists keys it covers and stores at an
	// equal-or-newer version (the bystander may drop its copy), Want
	// lists keys it holds or covers at an older version (the hinting
	// node pushes its newer tuple), and Newer carries tuples the
	// responder holds at a strictly newer version than hinted — whether
	// or not it covers them — so stale bystander copies converge to the
	// latest version even before a keeper is found.
	SupersedeResp struct {
		Held  []KeyVersion
		Want  []string
		Newer []*tuple.Tuple
	}
)

// pendingCheck tracks an outstanding walk probe for one arc.
type pendingCheck struct {
	arc        node.Arc
	setID      uint64
	launchedAt sim.Round
}

// Manager is the per-node redundancy maintenance machine. It also owns
// the node's *effective* responsibility: the base sieve's arcs plus any
// adopted arcs from recruitment.
type Manager struct {
	self    node.ID
	rng     *rand.Rand
	base    sieve.ArcSieve
	st      *store.Store
	walker  *randomwalk.Walker
	sampler membership.Sampler
	cfg     Config

	adopted      []node.Arc
	deficitSince map[node.Point]sim.Round // arc start -> first round deficit seen
	pending      []pendingCheck
	arcCursor    int
	probeSpin    uint64 // rotates the walk-probe point across arc eighths

	// Orphan handoff state: stored tuples that drifted outside the
	// node's responsibility (sieve arcs move with N̂) still need their
	// redundancy guaranteed by whoever covers them now.
	orphanCursor   string
	pendingOrphans []pendingOrphan
	orphanDone     map[string]sim.Round

	// verBuf is the reusable reconciliation buffer: reconcile re-fills
	// it from the store each time instead of allocating a fresh
	// key→version map per exchange.
	verBuf []store.VersionEntry

	// supersedeCursor walks the store across supersession sweeps.
	supersedeCursor string
	// Supersession-sweep backoff state: the next sweep fires at
	// supersedeNext; supersedeGap doubles (capped at supersedeMaxEvery)
	// after each sweep, and any observed divergence since the last sweep
	// (diverged) snaps the gap back to supersedeEvery. now mirrors the
	// round clock at Tick/Handle entry so noteDivergence can pull the
	// next sweep forward without threading the clock through every
	// handler.
	supersedeGap  int
	supersedeNext sim.Round
	diverged      bool
	now           sim.Round
	// confirms records, per bystander key, the first keeper that
	// answered Held: the copy is only released when a *second, distinct*
	// keeper confirms, so one keeper crashing right after its
	// confirmation cannot take the sole surviving latest copy with it.
	confirms map[string]node.ID

	// Counters for experiment C7.
	Checks    int64
	Syncs     int64
	Pushed    int64 // tuples shipped to peers
	Recruits  int64
	Abandoned int64 // adopted arcs released after overshoot
	Handoffs  int64 // orphaned tuples pushed to their current coverers

	// Repair-traffic counters surfaced in ddbench scenario rows.
	Segments      int64 // sub-range digests exchanged (segmented sync)
	Superseded    int64 // bystander copies dropped after a Held answer
	Sweeps        int64 // supersession sweeps actually fired (backoff-visible)
	CoverageSkips int64 // pushes suppressed because the peer's coverage excludes the key
	Rejected      int64 // received tuples refused by tuple.Validate, and Held versions above tuple.MaxSeq
}

type pendingOrphan struct {
	key        string
	setID      uint64
	launchedAt sim.Round
}

var _ sim.Machine = (*Manager)(nil)

// New builds a Manager. The walker must belong to the same node and be
// driven by the same composite machine (walk messages are routed to it,
// repair messages here).
func New(self node.ID, rng *rand.Rand, base sieve.ArcSieve, st *store.Store,
	walker *randomwalk.Walker, sampler membership.Sampler, cfg Config) *Manager {
	return &Manager{
		self:         self,
		rng:          rng,
		base:         base,
		st:           st,
		walker:       walker,
		sampler:      sampler,
		cfg:          cfg.normalized(),
		deficitSince: make(map[node.Point]sim.Round),
		orphanDone:   make(map[string]sim.Round),
		confirms:     make(map[string]node.ID),
		supersedeGap: supersedeEvery,
	}
}

// Arcs returns the node's effective responsibility: base sieve arcs plus
// adopted arcs.
func (m *Manager) Arcs() []node.Arc {
	out := append([]node.Arc(nil), m.base.Arcs()...)
	out = append(out, m.adopted...)
	return out
}

// Covers reports whether the effective responsibility contains p. Walk
// probes and orphan sweeps call this per tuple/point, so it checks the
// base and adopted arcs in place rather than materialising Arcs().
func (m *Manager) Covers(p node.Point) bool {
	if pc, ok := m.base.(sieve.PointCoverer); ok {
		if pc.CoversPoint(p) {
			return true
		}
	} else {
		for _, a := range m.base.Arcs() {
			if a.Contains(p) {
				return true
			}
		}
	}
	for _, a := range m.adopted {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// coversAnyOf reports whether any part of the effective responsibility
// intersects the arc — segmented sync uses it to tell shared segments
// (both sides accountable for the range) from foreign ones (content the
// requester holds beyond this node's arcs, which is not this node's
// debt and must not be exchanged).
func (m *Manager) coversAnyOf(arc node.Arc) bool {
	for _, a := range m.base.Arcs() {
		if a.Intersects(arc) {
			return true
		}
	}
	for _, a := range m.adopted {
		if a.Intersects(arc) {
			return true
		}
	}
	return false
}

// arcsContain reports whether any of the arcs contains p — the
// receiver-side test of a SyncVersions.Coverage snapshot.
func arcsContain(arcs []node.Arc, p node.Point) bool {
	for _, a := range arcs {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// Keep is the effective sieve decision: base sieve or adopted arcs.
func (m *Manager) Keep(t *tuple.Tuple) bool {
	if m.base.Keep(t) {
		return true
	}
	p := t.Point()
	for _, a := range m.adopted {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// AdoptedCount returns the number of currently adopted arcs.
func (m *Manager) AdoptedCount() int { return len(m.adopted) }

// Start implements sim.Machine. A rebooted node re-checks its ranges
// promptly (cursor reset) but keeps adopted arcs — they are part of its
// durable responsibility.
func (m *Manager) Start(now sim.Round) []sim.Envelope {
	m.pending = nil
	// A (re)joined node cannot assume the cluster is converged around
	// it: restart the supersession sweep at full cadence.
	m.supersedeGap = supersedeEvery
	m.supersedeNext = now
	m.diverged = false
	m.now = now
	return nil
}

// Tick implements sim.Machine.
// Tick drives the periodic machinery. Steady-state allocation audit: on
// rounds with no pending harvests and no periodic sweep due,
// every sub-path returns nil and out never allocates — the common round
// costs zero allocations. The periodic paths allocate only genuine
// message payloads (digest vectors, tuple batches), whose size varies
// with store content and cannot come from a fixed pool.
func (m *Manager) Tick(now sim.Round) []sim.Envelope {
	m.now = now
	var out []sim.Envelope
	out = append(out, m.harvest(now)...)
	out = append(out, m.harvestOrphans(now)...)
	if now >= m.supersedeNext {
		out = append(out, m.sweepBystanders()...)
		m.Sweeps++
		if m.diverged {
			m.supersedeGap = supersedeEvery
			m.diverged = false
		} else {
			m.supersedeGap = min(m.supersedeGap*2, supersedeMaxEvery)
		}
		m.supersedeNext = now + sim.Round(m.supersedeGap)
	}
	if now%sim.Round(m.cfg.CheckEvery) != 0 {
		return out
	}
	out = append(out, m.sweepOrphans(now)...)
	arcs := m.Arcs()
	if len(arcs) == 0 {
		return out
	}
	m.arcCursor = (m.arcCursor + 1) % len(arcs)
	arc := arcs[m.arcCursor]
	if arc.Width == 0 {
		return out
	}
	setID, envs := m.walker.Launch(randomwalk.Query{Point: m.probePoint(arc)}, m.cfg.Walks, m.cfg.TTL)
	m.pending = append(m.pending, pendingCheck{arc: arc, setID: setID, launchedAt: now})
	m.Checks++
	out = append(out, envs...)
	return out
}

// probePoint picks the walk-probe position for an arc check: one walk
// set answers for every tuple in the range at once (the paper's cost
// reduction). The probe walks a low-discrepancy (Weyl) sequence across
// the arc, because peer arcs overlap this one only partially — a fixed
// probe point discovers the same holder subset forever, and a peer
// whose overlap is a narrow sliver would never be paired with, leaving
// the keys it alone knows the latest version of stale indefinitely.
func (m *Manager) probePoint(arc node.Arc) node.Point {
	m.probeSpin++
	// Golden-ratio multiplicative recurrence: successive probes are
	// maximally spread and eventually sample every overlap sliver.
	offset := (m.probeSpin * 0x9e3779b97f4a7c15) % arc.Width
	return arc.Start + node.Point(offset)
}

// syncMsg builds one range-sync opener toward a peer: the segmented
// digest vector when the arc is wide enough to split, one whole-arc
// digest otherwise (pinpoint adoption slivers).
func (m *Manager) syncMsg(arc node.Arc) any {
	const nseg = 1 << segBits
	if arc.Width < nseg {
		return SyncReq{Arc: arc, Digest: m.st.DigestArc(arc)}
	}
	digests, _ := m.st.SegmentDigests(arc, nseg)
	m.Segments += int64(nseg)
	return SegSyncReq{Arc: arc, Digests: digests}
}

// noteDivergence records evidence that the cluster is not converged
// around this node — a copy was retired or refreshed, a peer turned out
// to be behind, or a version this node lacked arrived. It snaps the
// supersession sweep back to full cadence: the next sweep fires within
// supersedeEvery rounds and the backoff restarts from there.
func (m *Manager) noteDivergence() {
	m.diverged = true
	if next := m.now + supersedeEvery; next < m.supersedeNext {
		m.supersedeNext = next
	}
}

// NoteDivergence is the cross-layer divergence signal: the epidemic
// layer calls it when a gossiped write lands a version this node lacked
// — fresh writes mint fresh last-resort copies, so the supersession
// sweep must not idle through an active workload.
func (m *Manager) NoteDivergence() { m.noteDivergence() }

// sweepBystanders scans a window of the store for copies outside the
// node's responsibility and hints their (key, version) pairs to one
// sampled peer — the retention-aware supersession path that bounds
// bystander accretion without the cost of a walk set per key.
//
// Every copy is hinted, not only bystanders: for a copy this node is
// responsible for, a fresher holder's Newer answer refreshes it in
// place — cheap version-level anti-entropy that reaches even keys whose
// arc sits in a rarely-checked adopted sliver. Only bystander copies
// are ever *dropped* (the receiver-side Covers guard enforces it).
func (m *Manager) sweepBystanders() []sim.Envelope {
	hints := make([]KeyVersion, 0, supersedeBatch)
	visited := 0
	var last string
	// Borrowed walk: only the key (a value copy) and version leave the
	// callback.
	m.st.ScanRef(m.supersedeCursor, 0, func(t *tuple.Tuple) bool {
		visited++
		last = t.Key
		if visited > 256 || len(hints) >= supersedeBatch {
			return false
		}
		hints = append(hints, KeyVersion{Key: t.Key, Version: t.Version})
		return true
	})
	if visited <= 256 && len(hints) < supersedeBatch {
		m.supersedeCursor = "" // reached the end: wrap
	} else {
		m.supersedeCursor = last
	}
	if len(hints) == 0 {
		return nil
	}
	// Fan the batch out to a few peers (one shared boxed message): only
	// ~r/N of peers covers a given key, so a single target would leave
	// most sweeps unanswered.
	peers := m.sampler.Sample(supersedePeers)
	if len(peers) == 0 {
		return nil
	}
	msg := any(SupersedeQuery{Hints: hints})
	out := make([]sim.Envelope, 0, len(peers))
	for _, p := range peers {
		if p == m.self {
			continue
		}
		out = append(out, sim.Envelope{To: p, Msg: msg})
	}
	return out
}

// sweepOrphans scans a window of the store for tuples outside the node's
// current responsibility and launches point walks to find who covers
// them now.
func (m *Manager) sweepOrphans(now sim.Round) []sim.Envelope {
	var out []sim.Envelope
	launched := 0
	visited := 0
	var last string
	// Borrowed walk: the sweep reads only t.Key (a value copy) and the
	// ring point; the walk query carries the key string, not the tuple.
	m.st.ScanRef(m.orphanCursor, 0, func(t *tuple.Tuple) bool {
		visited++
		last = t.Key
		if visited > 128 || launched >= m.cfg.OrphanBatch {
			return false
		}
		if m.Covers(t.Point()) {
			return true
		}
		if doneAt, ok := m.orphanDone[t.Key]; ok && now-doneAt < orphanRecheck {
			return true
		}
		setID, envs := m.walker.Launch(
			randomwalk.Query{Point: t.Point(), Key: t.Key}, m.cfg.Walks, m.cfg.TTL)
		m.pendingOrphans = append(m.pendingOrphans, pendingOrphan{
			key: t.Key, setID: setID, launchedAt: now,
		})
		m.orphanDone[t.Key] = now
		launched++
		out = append(out, envs...)
		return true
	})
	if visited <= 128 && launched < m.cfg.OrphanBatch {
		m.orphanCursor = "" // reached the end: wrap
	} else {
		m.orphanCursor = last
	}
	return out
}

// harvestOrphans resolves completed orphan walks: push the tuple to its
// current coverers, or recruit an adopter when nobody covers it.
func (m *Manager) harvestOrphans(now sim.Round) []sim.Envelope {
	var out []sim.Envelope
	remaining := m.pendingOrphans[:0]
	for _, po := range m.pendingOrphans {
		if now-po.launchedAt < sim.Round(m.cfg.WaitRounds) {
			remaining = append(remaining, po)
			continue
		}
		set, ok := m.walker.Results(po.setID)
		if !ok {
			continue
		}
		m.walker.Forget(po.setID)
		t, have := m.st.GetAny(po.key)
		if !have {
			continue
		}
		holders := set.Holders()
		pushed := 0
		for _, h := range holders {
			if h == m.self {
				continue
			}
			out = append(out, sim.Envelope{To: h, Msg: SyncPush{Tuples: []*tuple.Tuple{t}}})
			m.Handoffs++
			pushed++
			if pushed >= syncPeers {
				break
			}
		}
		// The last-resort copy is NOT released here: walk samples only
		// prove the holders *cover* the point, not that they store this
		// key at this version, and the handoff pushes emitted above may
		// still be lost — dropping on that evidence could destroy the
		// only latest copy. The supersession exchange retires the copy
		// instead, once a keeper explicitly confirms an equal-or-newer
		// version (and its floor then keeps the retirement final).
		if len(set.Samples) > 0 && len(holders) == 0 {
			// Nobody covers this point: a coverage gap. Recruit an
			// adopter with a pinpoint arc so the tuple keeps a
			// responsible owner.
			if peer := m.sampler.One(); peer != node.None && peer != m.self {
				out = append(out, sim.Envelope{To: peer, Msg: AdoptReq{
					Arc:    node.Arc{Start: t.Point(), Width: 1},
					Tuples: []*tuple.Tuple{t},
				}})
				m.Recruits++
			}
		}
	}
	m.pendingOrphans = remaining
	return out
}

// harvest judges walk sets whose wait window elapsed.
func (m *Manager) harvest(now sim.Round) []sim.Envelope {
	var out []sim.Envelope
	remaining := m.pending[:0]
	for _, pc := range m.pending {
		if now-pc.launchedAt < sim.Round(m.cfg.WaitRounds) {
			remaining = append(remaining, pc)
			continue
		}
		set, ok := m.walker.Results(pc.setID)
		if ok {
			out = append(out, m.judge(now, pc.arc, set)...)
			m.walker.Forget(pc.setID)
		}
	}
	m.pending = remaining
	return out
}

// judge applies the repair policy to one range's replica estimate.
func (m *Manager) judge(now sim.Round, arc node.Arc, set *randomwalk.Set) []sim.Envelope {
	var out []sim.Envelope
	nEst := 2.0
	if m.cfg.NEst != nil {
		if e := m.cfg.NEst(); e > 2 {
			nEst = e
		}
	}
	replicas := set.ReplicaEstimate(nEst)
	holders := set.Holders()
	// Always anti-entropy with a few holders: content convergence is
	// useful regardless of the replica count.
	for i, h := range holders {
		if i >= syncPeers {
			break
		}
		if h == m.self {
			continue
		}
		out = append(out, sim.Envelope{To: h, Msg: m.syncMsg(arc)})
		m.Syncs++
	}
	target := float64(m.cfg.Replication)
	switch {
	case replicas >= target:
		delete(m.deficitSince, arc.Start)
		// Release adopted arcs once the range is comfortably covered.
		if replicas > target*1.5 {
			m.release(arc)
		}
	default:
		first, seen := m.deficitSince[arc.Start]
		if !seen {
			m.deficitSince[arc.Start] = now
			return out
		}
		if now-first < sim.Round(m.cfg.Grace) {
			return out // transient-churn allowance
		}
		// Persistent deficit: recruit a random peer to adopt the range.
		peer := m.sampler.One()
		if peer == node.None || peer == m.self {
			return out
		}
		out = append(out, sim.Envelope{To: peer, Msg: AdoptReq{
			Arc:    arc,
			Tuples: m.tuplesInArc(arc, maxPush),
		}})
		m.Recruits++
		delete(m.deficitSince, arc.Start) // restart the grace clock
	}
	return out
}

// release drops an adopted arc matching start (base arcs are never
// released).
func (m *Manager) release(arc node.Arc) {
	for i, a := range m.adopted {
		if a.Start == arc.Start && a.Width == arc.Width {
			m.adopted = append(m.adopted[:i], m.adopted[i+1:]...)
			m.Abandoned++
			return
		}
	}
}

// Handle implements sim.Machine.
func (m *Manager) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	m.now = now
	switch msg := msg.(type) {
	case SyncReq:
		if m.st.DigestArc(msg.Arc) == msg.Digest {
			return nil // ranges identical
		}
		// Only arcs too narrow to segment (pinpoint adoption slivers)
		// arrive here; the reply is gated by coverage like a segmented
		// leaf reply.
		return []sim.Envelope{{To: from, Msg: SyncVersions{
			Arc:      msg.Arc,
			Versions: m.st.VersionsInArc(msg.Arc),
			Coverage: m.Arcs(),
		}}}
	case SyncVersions:
		return m.reconcile(from, msg)
	case SegSyncReq:
		return m.handleSegSync(from, msg)
	case SupersedeQuery:
		return m.handleSupersedeQuery(from, msg)
	case SupersedeResp:
		return m.handleSupersedeResp(from, msg)
	case SyncPull:
		tuples := make([]*tuple.Tuple, 0, len(msg.Keys))
		for _, k := range msg.Keys {
			if t, ok := m.st.GetAny(k); ok {
				tuples = append(tuples, t)
			}
		}
		if len(tuples) == 0 {
			return nil
		}
		m.Pushed += int64(len(tuples))
		m.noteDivergence() // the peer is pulling content it lacked
		return []sim.Envelope{{To: from, Msg: SyncPush{Tuples: tuples}}}
	case SyncPush:
		var newer []*tuple.Tuple
		for _, t := range msg.Tuples {
			if !m.admit(t) {
				continue
			}
			keep := m.Keep(t)
			if !keep && m.st.Version(t.Key).IsZero() {
				// Refuse content that is neither ours to keep nor already
				// held. Arc syncs exchange the requester's whole arc, which
				// can exceed this node's overlapping responsibility —
				// applying the excess would mint fresh bystander copies
				// faster than supersession retires them.
				continue
			}
			if keep {
				// Responsibility trumps retirement: a keeper must accept
				// the very version it may once have discarded as a
				// redundant bystander copy, or the range could never
				// restore its replica count from the surviving copies.
				m.st.ClearFloor(t.Key)
			}
			if m.st.Apply(t) {
				m.noteDivergence() // the peer knew a version we lacked
				continue
			}
			// Rejected as stale: push our newer copy back to the sender
			// so last-resort copies converge to the latest version.
			if t.Version.Less(m.st.Version(t.Key)) {
				if cur, ok := m.st.GetAny(t.Key); ok {
					newer = append(newer, cur)
				}
			}
		}
		if len(newer) > 0 {
			if len(newer) > maxPush {
				newer = newer[:maxPush]
			}
			m.Pushed += int64(len(newer))
			m.noteDivergence() // the sender pushed stale content
			return []sim.Envelope{{To: from, Msg: SyncPush{Tuples: newer}}}
		}
	case AdoptReq:
		m.adopt(msg)
	}
	return nil
}

// handleSegSync answers one level of the digest tree: compare the
// peer's segment vector against local state and answer mismatching
// segments with key-level versions (small segments) or a recursive
// SegSyncReq one level down. Matching and foreign segments send nothing.
func (m *Manager) handleSegSync(from node.ID, msg SegSyncReq) []sim.Envelope {
	n := len(msg.Digests)
	if n == 0 || msg.Arc.Width < uint64(n) {
		return nil // syncMsg never segments an arc this narrow
	}
	// The store's ring-bucket index serves the segment vector in
	// O(|arc| boundary entries + buckets); only *mismatching* segments
	// are then revisited — for leaf version maps or one-level-down
	// digest vectors over just that segment's sub-arc. Clean segments
	// (the common case between converged peers) cost no entry visits at
	// all, where the pre-index handler collected the arc's whole
	// population on every request.
	mine, counts := m.st.SegmentDigests(msg.Arc, n)
	var out []sim.Envelope
	var coverage []node.Arc // lazily built, shared across this reply's leaves
	for i := 0; i < n; i++ {
		if mine[i] == msg.Digests[i] {
			continue // segment identical: the recursion prunes it
		}
		sub := msg.Arc.SubArc(i, n)
		if counts[i] == 0 && !m.coversAnyOf(sub) {
			// Foreign segment: the requester holds content in a range this
			// node neither covers nor stores anything of. That difference
			// is not this node's debt — exchanging it would only mint
			// bystander copies.
			continue
		}
		if counts[i] <= segLeafKeys || sub.Width < uint64(n) {
			versions := make(map[string]tuple.Version, counts[i])
			m.st.ArcRefs(sub, func(key string, _ node.Point, v tuple.Version) bool {
				versions[key] = v
				return true
			})
			if coverage == nil {
				coverage = m.Arcs()
			}
			out = append(out, sim.Envelope{To: from, Msg: SyncVersions{
				Arc:      sub,
				Versions: versions,
				Coverage: coverage,
			}})
			continue
		}
		subDigests, _ := m.st.SegmentDigests(sub, n)
		m.Segments += int64(n)
		out = append(out, sim.Envelope{To: from, Msg: SegSyncReq{Arc: sub, Digests: subDigests}})
	}
	return out
}

// handleSupersedeQuery answers bystander hints. As a responsible keeper:
// Held when the local version supersedes the hint (the bystander may
// drop), Want when the bystander is ahead of — or unknown to — this
// keeper and should push its copy. As a mere fellow holder: ship a
// strictly newer version back (the stale bystander refreshes in place),
// or ask for the hinted one when behind — so copies converge to the
// latest version even before a hint reaches a keeper.
func (m *Manager) handleSupersedeQuery(from node.ID, msg SupersedeQuery) []sim.Envelope {
	var resp SupersedeResp
	for _, h := range msg.Hints {
		p := node.HashKey(h.Key)
		covers := m.Covers(p)
		v := m.st.Version(h.Key)
		switch {
		case covers && !v.IsZero() && !v.Less(h.Version):
			resp.Held = append(resp.Held, KeyVersion{Key: h.Key, Version: v})
			if h.Version.Less(v) {
				// The hinted copy is strictly stale: mismatch evidence.
				// An equal-version Held is the converged steady state and
				// must NOT reset the sweep backoff.
				m.noteDivergence()
			}
		case covers:
			// A bystander knows a version this keeper cannot confirm: ask
			// for the copy.
			resp.Want = append(resp.Want, h.Key)
			m.noteDivergence()
		case v.IsZero():
			// Neither responsible nor holding: nothing useful to answer.
		case h.Version.Less(v):
			if t, ok := m.st.GetAny(h.Key); ok {
				resp.Newer = append(resp.Newer, t)
				m.noteDivergence()
			}
		case v.Less(h.Version):
			resp.Want = append(resp.Want, h.Key)
			m.noteDivergence()
		}
	}
	if len(resp.Held) == 0 && len(resp.Want) == 0 && len(resp.Newer) == 0 {
		return nil
	}
	m.Pushed += int64(len(resp.Newer))
	return []sim.Envelope{{To: from, Msg: resp}}
}

// handleSupersedeResp resolves a supersession exchange at the bystander:
// drop copies a responsible keeper holds at an equal-or-newer version,
// push the tuples a responsible keeper asked for. A key that vanished or
// moved into local responsibility since the hint is left alone, so a
// stale response can never drop data it should not — and a dropped key
// is simply absent here, so late responses cannot resurrect it.
func (m *Manager) handleSupersedeResp(from node.ID, msg SupersedeResp) []sim.Envelope {
	for _, h := range msg.Held {
		if h.Version.Seq > tuple.MaxSeq {
			m.Rejected++
			continue // above the ceiling: never a floor
		}
		cur := m.st.Version(h.Key)
		if cur.IsZero() || m.Covers(node.HashKey(h.Key)) {
			continue
		}
		if h.Version.Less(cur) {
			continue // we advanced past the keeper since the hint: keep
		}
		// Require confirmations from two distinct keepers before
		// releasing the copy (one suffices at replication 1): a single
		// confirming keeper could crash before range sync spreads the
		// confirmed version, and this copy may be the only other one.
		if m.cfg.Replication > 1 {
			first, seen := m.confirms[h.Key]
			if !seen || first == from {
				if len(m.confirms) > 4096 {
					// Rare overflow of half-confirmed keys: reset and let
					// them re-confirm rather than grow without bound.
					m.confirms = make(map[string]node.ID)
				}
				m.confirms[h.Key] = from
				// A half-confirmed retirement is in flight: keep the sweep
				// at full cadence until the second keeper answers.
				m.noteDivergence()
				continue
			}
		}
		// Discard: the keeper-confirmed version becomes a
		// supersession floor, so late or replayed traffic cannot
		// resurrect the retired copy at an old version.
		if m.st.Discard(h.Key, h.Version) {
			delete(m.orphanDone, h.Key)
			delete(m.confirms, h.Key)
			m.Superseded++
			m.noteDivergence()
		}
	}
	for _, t := range msg.Newer {
		// Refresh in place only: a key already dropped (or never held)
		// must not be resurrected by a late response.
		if m.admit(t) && !m.st.Version(t.Key).IsZero() && m.st.Apply(t) {
			m.noteDivergence()
		}
	}
	var push []*tuple.Tuple
	for _, k := range msg.Want {
		if t, ok := m.st.GetAny(k); ok {
			push = append(push, t)
		}
	}
	if len(push) == 0 {
		return nil
	}
	if len(push) > maxPush {
		push = push[:maxPush]
	}
	m.Pushed += int64(len(push))
	m.noteDivergence() // a keeper lacked copies we hold
	return []sim.Envelope{{To: from, Msg: SyncPush{Tuples: push}}}
}

// reconcile diffs the peer's versions against local state: pull what the
// peer has newer, push what we have newer. Local state comes from the
// reusable sorted verBuf (AppendVersionsInArc) rather than a fresh map
// per exchange; msg.Coverage gates the "peer lacks it" pushes on the peer
// actually covering the key — content only this side is responsible for
// stays home instead of being re-shipped (and refused) every pass.
func (m *Manager) reconcile(from node.ID, msg SyncVersions) []sim.Envelope {
	m.verBuf = m.st.AppendVersionsInArc(m.verBuf[:0], msg.Arc)
	mine := m.verBuf
	lookup := func(key string) (tuple.Version, bool) {
		i := sort.Search(len(mine), func(i int) bool { return mine[i].Key >= key })
		if i < len(mine) && mine[i].Key == key {
			return mine[i].Version, true
		}
		return tuple.Version{}, false
	}
	var pull []string
	var push []*tuple.Tuple
	for key, theirs := range msg.Versions {
		ours, ok := lookup(key)
		switch {
		case !ok || ours.Less(theirs):
			if !ok && !m.Covers(node.HashKey(key)) {
				// A key that is neither held nor covered is not this
				// node's debt — pulling it would mint a fresh bystander
				// copy.
				continue
			}
			pull = append(pull, key)
		case theirs.Less(ours):
			if t, found := m.st.GetAny(key); found {
				push = append(push, t)
			}
		}
	}
	for i := range mine {
		kv := &mine[i]
		if _, ok := msg.Versions[kv.Key]; ok {
			continue
		}
		if !arcsContain(msg.Coverage, kv.Point) {
			// The peer told us it is not responsible for this point, and
			// it holds no copy (the key is absent from its versions) — it
			// would refuse the push as a would-be bystander copy. Boundary
			// content only this side covers stops crossing the wire every
			// pass.
			m.CoverageSkips++
			continue
		}
		if t, found := m.st.GetAny(kv.Key); found {
			push = append(push, t)
		}
	}
	sort.Strings(pull)
	sort.Slice(push, func(i, j int) bool { return push[i].Key < push[j].Key })
	if len(push) > maxPush {
		push = push[:maxPush]
	}
	if len(pull) > maxPush {
		pull = pull[:maxPush]
	}
	var out []sim.Envelope
	if len(pull) > 0 {
		out = append(out, sim.Envelope{To: from, Msg: SyncPull{Keys: pull}})
	}
	if len(push) > 0 {
		m.Pushed += int64(len(push))
		out = append(out, sim.Envelope{To: from, Msg: SyncPush{Tuples: push}})
	}
	if len(out) > 0 {
		m.noteDivergence() // a range diff found version mismatches
	}
	return out
}

// adopt incorporates a recruited range: remember the arc (unless this
// node is already responsible for it), apply the data.
func (m *Manager) adopt(msg AdoptReq) {
	if !slices.Contains(m.Arcs(), msg.Arc) {
		m.adopted = append(m.adopted, msg.Arc)
		m.Recruits++ // counted on both ends: recruit sent and accepted
	}
	for _, t := range msg.Tuples {
		if !m.admit(t) {
			continue
		}
		// Adoption makes this node responsible for the payload: lift any
		// supersession floors so retired versions are re-admissible.
		m.st.ClearFloor(t.Key)
		m.st.Apply(t)
	}
}

// admit reports whether a tuple received from a peer may enter the
// store: it must pass tuple.Validate. Each refusal counts in Rejected.
func (m *Manager) admit(t *tuple.Tuple) bool {
	if t.Validate() != nil {
		m.Rejected++
		return false
	}
	return true
}

// tuplesInArc snapshots up to max tuples of the arc for transfer.
func (m *Manager) tuplesInArc(arc node.Arc, max int) []*tuple.Tuple {
	keys := m.st.KeysInArc(arc)
	sort.Strings(keys)
	if len(keys) > max {
		keys = keys[:max]
	}
	out := make([]*tuple.Tuple, 0, len(keys))
	for _, k := range keys {
		if t, ok := m.st.GetAny(k); ok {
			out = append(out, t)
		}
	}
	return out
}
