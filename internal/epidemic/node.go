// Package epidemic composes the persistent-state layer node of
// DataDroplets (§III): epidemic dissemination of writes, local sieve
// decisions, versioned storage, size estimation, random-walk redundancy
// checks with grace-window repair, gossip distribution estimation,
// attribute-ordered overlays for range scans, and push-sum aggregation.
//
// The node is a single sim.Machine that routes messages to its
// sub-machines by type — the same composition the live driver runs over
// TCP. Client-facing writes and reads (Write/Lookup) are started by the
// soft-state layer, which is the only component allowed to assign
// versions; its range scans arrive as ScanReqs and are answered to
// their origin.
package epidemic

import (
	"math/rand"
	"slices"

	"datadroplets/internal/aggregate"
	"datadroplets/internal/gossip"
	"datadroplets/internal/histogram"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/repair"
	"datadroplets/internal/sieve"
	"datadroplets/internal/sim"
	"datadroplets/internal/sizeest"
	"datadroplets/internal/store"
	"datadroplets/internal/tman"
	"datadroplets/internal/tuple"
)

// SieveKind selects the placement family (§III-A / §III-B1).
type SieveKind int

// Sieve kinds. Range is the default: it supports exact coverage analysis
// and walk-based repair. Uniform matches the paper's simplest proposal
// but cannot be repaired at range granularity. Quantile adds
// distribution-aware placement on QuantileAttr; Tag collocates by
// primary tag.
const (
	SieveRange SieveKind = iota + 1
	SieveUniform
	SieveQuantile
	SieveTag
)

// Config assembles a persistent-layer node.
type Config struct {
	// Replication is the target copy count r. Zero means 3.
	Replication int
	// FanoutC is the c in fanout = ln(N̂)+c. The paper's worked example
	// uses 7 for atomic dissemination; uniform-redundancy deployments
	// run far lower (see C3). Default 1.
	FanoutC float64
	// Sieve picks the placement family. Zero means SieveRange.
	Sieve SieveKind
	// QuantileAttr is the attribute for distribution-aware placement and
	// ordered scans (required for SieveQuantile).
	QuantileAttr string
	// AntiEntropyEvery enables gossip digest repair (rounds; 0 = off).
	AntiEntropyEvery int
	// DistEpochLen / DistBuckets tune distribution estimation (only used
	// with SieveQuantile or when EstimateAttr is set).
	DistEpochLen, DistBuckets int
	// EstimateAttr enables distribution estimation for an attribute even
	// without a quantile sieve.
	EstimateAttr string
	// Repair carries redundancy-maintenance knobs; Replication and NEst
	// are filled in by the node.
	Repair repair.Config
	// DisableRepair turns the redundancy manager off (ablations).
	DisableRepair bool
	// AggregateAttrs lists attributes continuously aggregated by
	// push-sum.
	AggregateAttrs []string
	// AggEpochLen tunes aggregation epochs. Zero means 30.
	AggEpochLen int
	// OrderAttr builds a T-Man ordered overlay over the quantile
	// attribute for range scans (requires SieveQuantile).
	OrderAttr bool
}

func (c Config) normalized() Config {
	if c.Replication < 1 {
		c.Replication = 3
	}
	if c.Sieve == 0 {
		c.Sieve = SieveRange
	}
	return c
}

// Client-path messages.
type (
	// WriteCmd is the soft→persistent handoff: the receiving persistent
	// node disseminates the tuple (WriteFrom) with ReplyTo, the soft node
	// that sequenced it, as hint origin.
	WriteCmd struct {
		Tuple   *tuple.Tuple
		ReplyTo node.ID
	}
	// WritePayload rides inside gossip rumors. Entry is the persistent
	// node that published the rumor: it retains the tuple regardless of
	// its sieve (replica of last resort — a key whose sieve keeper set
	// is empty, ~e^-r of keys, would otherwise be lost at birth; the
	// orphan sweep later hands it to proper coverers or recruits one).
	WritePayload struct {
		Tuple  *tuple.Tuple
		Origin node.ID // soft-state node that sequenced the write
		Entry  node.ID // persistent node that published the rumor
	}
	// StoreAck tells the origin that the sender kept the tuple. Version
	// lets the origin match the ack to the right write when several
	// pipelined writes to one key are in flight.
	StoreAck struct {
		Key     string
		Version tuple.Version
	}
	// ReadReq probes for a key; forwarded up to TTL hops on miss.
	ReadReq struct {
		Key    string
		ReqID  uint64
		Origin node.ID
		TTL    int
	}
	// ReadResp answers a ReadReq hit or a final miss.
	ReadResp struct {
		ReqID uint64
		Tuple *tuple.Tuple // nil on miss
	}
	// ScanReq walks the ordered overlay collecting attr ∈ [Lo, Hi].
	// While Seeking, the request descends predecessors to the first node
	// positioned at or below Lo before collection starts, so scans can
	// enter the overlay anywhere.
	ScanReq struct {
		Attr     string
		Lo, Hi   float64
		ReqID    uint64
		Origin   node.ID
		HopsLeft int
		Seeking  bool
	}
	// ScanResp returns one node's matching tuples.
	ScanResp struct {
		ReqID  uint64
		Tuples []*tuple.Tuple
		Done   bool
	}
	// AggReq asks a persistent node for its current aggregate estimates.
	AggReq struct {
		Attr  string
		ReqID uint64
	}
	// AggResp answers with the push-sum estimates and the node's N̂.
	// Count, when non-zero, is the KMV duplicate-insensitive distinct
	// tuple count — exact with respect to replication, unlike the
	// push-sum Sum whose replication normalisation assumes exactly r
	// copies.
	AggResp struct {
		ReqID     uint64
		Attr      string
		Known     bool
		Avg       float64
		Min       float64
		Max       float64
		Sum       float64
		Count     float64
		NEstimate float64
	}
	// RecoverReq asks a persistent node to report its stored versions so
	// a soft-state node can rebuild metadata after catastrophic loss.
	RecoverReq struct {
		ReqID uint64
		Limit int
	}
	// RecoverResp carries key -> version for the responder's store.
	RecoverResp struct {
		ReqID    uint64
		Versions map[string]tuple.Version
	}
)

// maxReads bounds the per-node outstanding-read registry; the oldest
// states are evicted first (late replies to them are then ignored).
const maxReads = 1024

// ReadState tracks an outstanding read at its origin.
type ReadState struct {
	Key     string
	Tuple   *tuple.Tuple
	Replies int
	Hit     bool
}

// Node is one persistent-state layer member.
type Node struct {
	Self node.ID
	rng  *rand.Rand
	cfg  Config

	sampler membership.Sampler

	St     *store.Store
	Diss   *gossip.Disseminator
	Size   *sizeest.Estimator
	Dist   *histogram.Estimator
	Walker *randomwalk.Walker
	Repair *repair.Manager
	Order  *tman.Overlay
	Aggs   map[string]*aggregate.Aggregator

	baseSieve sieve.Sieve // the configured sieve (pre-repair wrapping)

	outbox []sim.Envelope

	nextReq uint64
	reads   map[uint64]*ReadState
	// readOrder tracks read request IDs in creation order (IDs are
	// monotonic per node) so Lookup can evict the oldest states once
	// maxReads is exceeded — fire-and-forget callers (e.g. a scenario
	// read workload that never calls ForgetRead) must not grow the map
	// without bound.
	readOrder []uint64

	// OnHint, when set, receives storage acknowledgements for writes
	// this node originated (wired to the soft layer's directory): which
	// holder acknowledged storing which version of the key.
	OnHint func(key string, holder node.ID, v tuple.Version)

	// Stored counts sieve-accepted applications (C4 balance metric).
	Stored int64
	// Rejected counts tuples refused by tuple.Validate where they entered
	// this node: a WriteCmd, a pushed rumor or a digest reply's rumor.
	Rejected int64
}

var _ sim.Machine = (*Node)(nil)

// New assembles a node.
func New(self node.ID, rng *rand.Rand, sampler membership.Sampler, cfg Config) *Node {
	cfg = cfg.normalized()
	n := &Node{
		Self:    self,
		rng:     rng,
		cfg:     cfg,
		sampler: sampler,
		St:      store.New(rng),
		reads:   make(map[uint64]*ReadState),
		Aggs:    make(map[string]*aggregate.Aggregator),
	}
	n.Size = sizeest.New(self, rng, sampler, sizeest.Config{})
	nEst := n.Size.EstimateFunc()

	// Distribution estimation (feeds quantile sieves and client quantile
	// queries).
	distAttr := cfg.EstimateAttr
	if cfg.Sieve == SieveQuantile && cfg.QuantileAttr != "" {
		distAttr = cfg.QuantileAttr
	}
	if distAttr != "" {
		n.Dist = histogram.NewEstimator(self, rng, sampler, histogram.EstimatorConfig{
			EpochLen: cfg.DistEpochLen,
			Buckets:  cfg.DistBuckets,
			// Borrowed iteration: emit only reads the key (copied into
			// the sketch by value) and the attribute, so no clone and no
			// retention — the epoch reseed pass is allocation-free.
			Local: func(emit func(string, float64)) {
				n.St.ForEachRef(func(t *tuple.Tuple) bool {
					if t.Deleted {
						return true
					}
					// "count" sketches every live tuple (value 1); the
					// KMV keying by tuple key makes the resulting
					// distinct count immune to replication duplicates.
					if distAttr == "count" {
						emit(t.Key, 1)
						return true
					}
					if v, ok := t.Attr(distAttr); ok {
						emit(t.Key, v)
					}
					return true
				})
			},
		})
	}

	// Sieve.
	scfg := sieve.Config{
		Replication:  cfg.Replication,
		SizeEstimate: nEst,
	}
	var arcSieve sieve.ArcSieve
	switch cfg.Sieve {
	case SieveUniform:
		n.baseSieve = sieve.NewUniform(self, scfg)
	case SieveQuantile:
		histFn := func() *histogram.EquiDepth {
			if n.Dist == nil {
				return nil
			}
			return n.Dist.Histogram()
		}
		q := sieve.NewQuantile(self, cfg.QuantileAttr, histFn, scfg)
		n.baseSieve, arcSieve = q, q
	case SieveTag:
		tg := sieve.NewTag(self, scfg)
		n.baseSieve, arcSieve = tg, tg
	default:
		rg := sieve.NewRange(self, scfg)
		n.baseSieve, arcSieve = rg, rg
	}

	// Walker probes effective responsibility (repair-aware when present).
	n.Walker = randomwalk.New(self, rng, sampler, func(q randomwalk.Query) (bool, bool) {
		covers := false
		if n.Repair != nil {
			covers = n.Repair.Covers(q.Point)
		} else if pc, ok := arcSieve.(sieve.PointCoverer); ok && arcSieve != nil {
			covers = pc.CoversPoint(q.Point)
		} else if arcSieve != nil {
			for _, a := range arcSieve.Arcs() {
				if a.Contains(q.Point) {
					covers = true
					break
				}
			}
		}
		// Stored versions are never zero, so a non-zero one means "held".
		hasKey := q.Key != "" && !n.St.Version(q.Key).IsZero()
		return covers, hasKey
	})

	if arcSieve != nil && !cfg.DisableRepair {
		rcfg := cfg.Repair
		rcfg.Replication = cfg.Replication
		rcfg.NEst = nEst
		n.Repair = repair.New(self, rng, arcSieve, n.St, n.Walker, sampler, rcfg)
	}

	// Gossip dissemination with ln(N̂)+c fanout over the size estimate.
	n.Diss = gossip.New(self, rng, sampler, gossip.Config{
		Fanout:           gossip.FanoutLnN(nEst, cfg.FanoutC),
		AntiEntropyEvery: cfg.AntiEntropyEvery,
		OnDeliver:        n.onDeliver,
		PayloadBytes:     payloadBytes,
	})

	// Ordered overlay for range scans over the quantile attribute.
	if cfg.OrderAttr && cfg.Sieve == SieveQuantile {
		n.Order = tman.New(self, rng, sampler, n.orderValue(), tman.Config{Attr: cfg.QuantileAttr})
	}

	for _, attr := range cfg.AggregateAttrs {
		a := attr
		n.Aggs[a] = aggregate.New(self, rng, sampler, aggregate.Config{
			Attr:     a,
			EpochLen: cfg.AggEpochLen,
			Value:    func() float64 { return n.localAggValue(a) },
			Extremes: func() (float64, float64, bool) { return n.localExtremes(a) },
		})
	}
	return n
}

// localExtremes returns the min/max of attr over locally stored live
// tuples (per-tuple, unlike the replication-normalised sums). Served
// from the store's incremental statistics: O(1) unless a removal
// invalidated an extreme since the last call.
func (n *Node) localExtremes(attr string) (lo, hi float64, ok bool) {
	if attr == "count" {
		if n.St.Len() == 0 {
			return 0, 0, false
		}
		return 1, 1, true // every live tuple contributes value 1
	}
	return n.St.AttrExtremes(attr)
}

// localAggValue sums the attribute over locally stored live tuples,
// normalised by the replication factor so that the global push-sum total
// approximates the deduplicated sum (each tuple exists ≈ r times).
// Served from the store's incremental statistics in O(1): this is
// polled at every aggregation epoch on every node, where a walk of the
// store would dominate the per-epoch cost at paper scale.
func (n *Node) localAggValue(attr string) float64 {
	if attr == "count" {
		return float64(n.St.Len()) / float64(n.cfg.Replication)
	}
	s, _ := n.St.AttrSum(attr)
	return s / float64(n.cfg.Replication)
}

// orderValue positions this node in attribute-value space: the midpoint
// of its first quantile interval, or a hash-derived default while the
// histogram warms up.
func (n *Node) orderValue() float64 {
	frac := float64(node.HashID(n.Self)) / (1 << 63) / 2 // [0,1)
	if q, ok := n.baseSieve.(*sieve.Quantile); ok {
		if bounds := q.ValueBounds(); len(bounds) > 0 {
			return (bounds[0][0] + bounds[0][1]) / 2
		}
	}
	return frac
}

// payloadBytes sizes a write for the gossip payload cache's byte budget:
// what the tuple's fields hold, plus a fixed share for the Tuple struct,
// the boxed WritePayload and the cache entry. It is at least the
// payload's DDN1 encoding, which is what lets a whole-cache DigestResp
// fit one frame.
func payloadBytes(payload any) int {
	wp, ok := payload.(WritePayload)
	if !ok || wp.Tuple == nil {
		return 0
	}
	const fixed, perField = 128, 16
	t := wp.Tuple
	n := fixed + len(t.Key) + len(t.Value)
	for name := range t.Attrs {
		n += perField + len(name)
	}
	for _, tag := range t.Tags {
		n += perField + len(tag)
	}
	return n
}

// invalidRumor reports a write rumor whose tuple fails tuple.Validate.
// Handle drops such a rumor before the disseminator marks it seen,
// caches or relays it, so an invalid write stops at the first node it
// reaches.
func invalidRumor(r gossip.Rumor) bool {
	wp, ok := r.Payload.(WritePayload)
	return ok && wp.Tuple.Validate() != nil
}

// onDeliver is the gossip delivery hook: apply the sieve, store, ack.
// Every rumor it sees passed Handle's check or was published here.
func (n *Node) onDeliver(r gossip.Rumor) {
	wp, ok := r.Payload.(WritePayload)
	if !ok {
		return
	}
	keep := wp.Entry == n.Self // publisher always retains (last resort)
	if !keep && n.Repair != nil {
		keep = n.Repair.Keep(wp.Tuple)
	} else if !keep {
		keep = n.baseSieve.Keep(wp.Tuple)
	}
	if !keep {
		// Not responsible — but never hold known-stale data: if an older
		// copy is present (e.g. retained as a publisher), supersede it.
		// Version (not GetAny) keeps this common path clone-free: stored
		// versions are never zero, so a zero means "absent".
		if cur := n.St.Version(wp.Tuple.Key); !cur.IsZero() && cur.Less(wp.Tuple.Version) {
			if n.St.Apply(wp.Tuple) && n.Repair != nil {
				n.Repair.NoteDivergence()
			}
		}
		return
	}
	if n.St.Apply(wp.Tuple) {
		n.Stored++
		if n.Repair != nil {
			// A fresh version landed: the write mints a last-resort copy
			// at its publisher, so the supersession sweep must stay at
			// full cadence while the workload is live.
			n.Repair.NoteDivergence()
		}
	}
	// Keepers acknowledge storage back to the write's origin so the soft
	// layer can build its directory.
	if wp.Origin != node.None {
		if wp.Origin == n.Self {
			if n.OnHint != nil {
				n.OnHint(wp.Tuple.Key, n.Self, wp.Tuple.Version)
			}
		} else {
			n.outbox = append(n.outbox, sim.Envelope{To: wp.Origin, Msg: StoreAck{Key: wp.Tuple.Key, Version: wp.Tuple.Version}})
		}
	}
}

// Write starts epidemic dissemination of a sequenced tuple from this
// node. The caller must have assigned t.Version (soft layer contract)
// and hands t over: from here on the rumor, the payload cache and every
// store that keeps it share the one tuple, which nobody may change.
func (n *Node) Write(now sim.Round, t *tuple.Tuple) []sim.Envelope {
	return n.WriteFrom(now, n.Self, t)
}

// WriteFrom disseminates a tuple on behalf of an external origin (used
// by the soft layer when it is collocated with a different persistent
// node).
func (n *Node) WriteFrom(now sim.Round, origin node.ID, t *tuple.Tuple) []sim.Envelope {
	_, envs := n.Diss.Publish(now, WritePayload{Tuple: t, Origin: origin, Entry: n.Self})
	return append(envs, n.drain()...)
}

// Lookup starts a read: direct requests to hint holders plus probe
// requests to random peers as fallback. Returns the request ID and the
// envelopes.
func (n *Node) Lookup(key string, hints []node.ID, probes, ttl int) (uint64, []sim.Envelope) {
	n.nextReq++
	reqID := uint64(n.Self)<<32 | n.nextReq
	n.reads[reqID] = &ReadState{Key: key}
	n.readOrder = append(n.readOrder, reqID)
	for len(n.reads) > maxReads && len(n.readOrder) > 0 {
		old := n.readOrder[0]
		n.readOrder = n.readOrder[1:]
		delete(n.reads, old) // no-op for states already forgotten
	}
	// Compact the order slice once it is dominated by forgotten reads
	// (ForgetRead deletes map entries but leaves their slots behind):
	// without this, a caller that forgets every read grows the slice
	// forever while the map stays small. Amortised O(1).
	if len(n.readOrder) > 2*len(n.reads)+16 {
		kept := n.readOrder[:0]
		for _, id := range n.readOrder {
			if _, live := n.reads[id]; live {
				kept = append(kept, id)
			}
		}
		n.readOrder = kept
	}
	var envs []sim.Envelope
	if t, ok := n.St.Get(key); ok {
		// Local hit: resolve immediately.
		st := n.reads[reqID]
		st.Tuple, st.Hit, st.Replies = t, true, 1
		return reqID, nil
	}
	seen := map[node.ID]bool{n.Self: true}
	for _, h := range hints {
		if !seen[h] {
			seen[h] = true
			envs = append(envs, sim.Envelope{To: h, Msg: ReadReq{Key: key, ReqID: reqID, Origin: n.Self, TTL: 0}})
		}
	}
	for _, p := range n.sampler.Sample(probes) {
		if !seen[p] {
			seen[p] = true
			envs = append(envs, sim.Envelope{To: p, Msg: ReadReq{Key: key, ReqID: reqID, Origin: n.Self, TTL: ttl}})
		}
	}
	return reqID, envs
}

// Read returns the state of an outstanding read.
func (n *Node) Read(reqID uint64) (*ReadState, bool) {
	st, ok := n.reads[reqID]
	return st, ok
}

// ForgetRead releases a read's state.
func (n *Node) ForgetRead(reqID uint64) { delete(n.reads, reqID) }

// handleScan collects local matches and forwards along the overlay.
func (n *Node) handleScan(req ScanReq) []sim.Envelope {
	// Seeking phase: descend to the first node at or below the range
	// start before collecting, so the entry point does not truncate
	// results (the origin keeps its scan state while the request seeks).
	if req.Seeking && n.Order != nil && req.HopsLeft > 0 {
		if pred, ok := n.Order.Predecessor(); ok && n.Order.Value() > req.Lo {
			fwd := req
			fwd.HopsLeft--
			return []sim.Envelope{{To: pred.ID, Msg: fwd}}
		}
	}
	req.Seeking = false
	var matches []*tuple.Tuple
	// Borrowed walk, cloning only the hits: matches are retained (the
	// response messages), so they must be copies; the misses — the
	// overwhelming majority — are only looked at.
	n.St.ForEachRef(func(t *tuple.Tuple) bool {
		if t.Deleted {
			return true
		}
		if v, ok := t.Attr(req.Attr); ok && v >= req.Lo && v <= req.Hi {
			matches = append(matches, t.Clone())
		}
		return true
	})
	var out []sim.Envelope
	// Forward along the ordered overlay while in range and budget left.
	done := true
	if n.Order != nil && req.HopsLeft > 0 {
		if succ, ok := n.Order.Successor(); ok && succ.Value <= req.Hi {
			fwd := req
			fwd.HopsLeft--
			out = append(out, sim.Envelope{To: succ.ID, Msg: fwd})
			done = false
		}
	}
	out = append(out, sim.Envelope{To: req.Origin, Msg: ScanResp{ReqID: req.ReqID, Tuples: matches, Done: done}})
	return out
}

// drain empties the outbox.
func (n *Node) drain() []sim.Envelope {
	out := n.outbox
	n.outbox = nil
	return out
}

// Start implements sim.Machine.
func (n *Node) Start(now sim.Round) []sim.Envelope {
	var out []sim.Envelope
	out = append(out, n.Diss.Start(now)...)
	out = append(out, n.Size.Start(now)...)
	if n.Dist != nil {
		out = append(out, n.Dist.Start(now)...)
	}
	out = append(out, n.Walker.Start(now)...)
	if n.Repair != nil {
		out = append(out, n.Repair.Start(now)...)
	}
	if n.Order != nil {
		out = append(out, n.Order.Start(now)...)
	}
	for _, a := range n.sortedAggs() {
		out = append(out, n.Aggs[a].Start(now)...)
	}
	return append(out, n.drain()...)
}

// Tick implements sim.Machine.
func (n *Node) Tick(now sim.Round) []sim.Envelope {
	var out []sim.Envelope
	out = append(out, n.Diss.Tick(now)...)
	out = append(out, n.Size.Tick(now)...)
	if n.Dist != nil {
		out = append(out, n.Dist.Tick(now)...)
	}
	out = append(out, n.Walker.Tick(now)...)
	if n.Repair != nil {
		out = append(out, n.Repair.Tick(now)...)
	}
	if n.Order != nil {
		n.Order.SetValue(n.orderValue()) // track sieve movement
		out = append(out, n.Order.Tick(now)...)
	}
	for _, a := range n.sortedAggs() {
		out = append(out, n.Aggs[a].Tick(now)...)
	}
	return append(out, n.drain()...)
}

// Handle implements sim.Machine: route by message type.
func (n *Node) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	var out []sim.Envelope
	switch m := msg.(type) {
	case WriteCmd:
		if m.Tuple.Validate() != nil {
			n.Rejected++
			break
		}
		out = n.WriteFrom(now, m.ReplyTo, m.Tuple)
	case gossip.RumorMsg:
		if invalidRumor(m.Rumor) {
			n.Rejected++
			break
		}
		out = n.Diss.Handle(now, from, msg)
	case gossip.DigestResp:
		if slices.ContainsFunc(m.Rumors, invalidRumor) {
			kept := slices.DeleteFunc(slices.Clone(m.Rumors), invalidRumor)
			n.Rejected += int64(len(m.Rumors) - len(kept))
			m.Rumors = kept
		}
		out = n.Diss.Handle(now, from, m)
	case gossip.DigestReq:
		out = n.Diss.Handle(now, from, msg)
	case sizeest.VectorPush, sizeest.VectorReply:
		out = n.Size.Handle(now, from, msg)
	case histogram.SketchPush, histogram.SketchReply:
		if n.Dist != nil {
			out = n.Dist.Handle(now, from, msg)
		}
	case *randomwalk.WalkMsg, randomwalk.WalkResult:
		out = n.Walker.Handle(now, from, msg)
	case repair.SyncReq, repair.SyncVersions, repair.SyncPull, repair.SyncPush, repair.AdoptReq,
		repair.SegSyncReq, repair.SupersedeQuery, repair.SupersedeResp:
		if n.Repair != nil {
			out = n.Repair.Handle(now, from, msg)
		}
	case tman.Exchange:
		if n.Order != nil {
			out = n.Order.Handle(now, from, msg)
		}
	case aggregate.Mass:
		if a, ok := n.Aggs[m.Attr]; ok {
			out = a.Handle(now, from, msg)
		}
	case StoreAck:
		if n.OnHint != nil {
			n.OnHint(m.Key, from, m.Version)
		}
	case ReadReq:
		out = n.handleRead(m)
	case ReadResp:
		if st, ok := n.reads[m.ReqID]; ok {
			st.Replies++
			if m.Tuple != nil {
				if !st.Hit || st.Tuple.Version.Less(m.Tuple.Version) {
					st.Tuple = m.Tuple
				}
				st.Hit = true
			}
		}
	case ScanReq:
		out = n.handleScan(m)
	case AggReq:
		resp := AggResp{ReqID: m.ReqID, Attr: m.Attr, NEstimate: n.Size.Estimate()}
		if a, ok := n.Aggs[m.Attr]; ok {
			resp.Known = true
			resp.Avg = a.Average()
			resp.Min = a.Min()
			resp.Max = a.Max()
			// localAggValue already divides by r, so SumEstimate is the
			// deduplicated global sum — approximately, since the actual
			// replication can exceed r (origin retention, repair).
			resp.Sum = a.SumEstimate(resp.NEstimate)
		}
		// The KMV sketch counts distinct tuples exactly regardless of
		// replication (§III-C: distribution estimation gives aggregates
		// "at no cost"); report it alongside the push-sum estimates so
		// callers can use it directly or to de-bias push-sum sums.
		if n.Dist != nil {
			if est := n.Dist.DistinctEstimate(); est > 0 {
				resp.Known = true
				resp.Count = est
			}
		}
		out = []sim.Envelope{{To: from, Msg: resp}}
	case RecoverReq:
		versions := make(map[string]tuple.Version)
		// Borrowed walk: only the key and version values are copied out.
		n.St.ForEachRef(func(t *tuple.Tuple) bool {
			if m.Limit > 0 && len(versions) >= m.Limit {
				return false
			}
			versions[t.Key] = t.Version
			return true
		})
		out = []sim.Envelope{{To: from, Msg: RecoverResp{ReqID: m.ReqID, Versions: versions}}}
	}
	return append(out, n.drain()...)
}

// handleRead answers a probe: hit responds, miss forwards while TTL
// remains, exhausted TTL reports a miss so origins can count completions.
func (n *Node) handleRead(m ReadReq) []sim.Envelope {
	if t, ok := n.St.Get(m.Key); ok {
		return []sim.Envelope{{To: m.Origin, Msg: ReadResp{ReqID: m.ReqID, Tuple: t}}}
	}
	if m.TTL > 0 {
		if next := n.sampler.One(); next != node.None {
			m.TTL--
			return []sim.Envelope{{To: next, Msg: m}}
		}
	}
	return []sim.Envelope{{To: m.Origin, Msg: ReadResp{ReqID: m.ReqID, Tuple: nil}}}
}

// sortedAggs returns aggregation attrs in deterministic order.
func (n *Node) sortedAggs() []string {
	if len(n.Aggs) == 0 {
		return nil
	}
	out := make([]string, 0, len(n.Aggs))
	for a := range n.Aggs {
		out = append(out, a)
	}
	// Insertion sort: tiny slice, avoids importing sort for one call.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NEstimate exposes the node's current system-size estimate.
func (n *Node) NEstimate() float64 { return n.Size.Estimate() }

// Grain exposes the current sieve grain.
func (n *Node) Grain() float64 { return n.baseSieve.Grain() }
