// Package baseline implements the structured antagonist of experiment C8:
// a Cassandra/Chord-style replicated key-value store on a consistent-hash
// ring with full membership, successor-list replication and *reactive*
// repair. It embodies exactly the architecture §I criticises: "the rigid
// structure and organization of DHTs is sensible to faults and churn.
// Structure maintenance in a dynamic environment is hard because several
// invariants need to be observed and costly as repair mechanisms are
// reactive and thus induce an overhead proportional to churn."
//
// Failure detection is modelled by a delayed membership view: each node
// sees the true membership as it was DetectLag rounds ago. During the lag
// window writes can land on dead replicas and repairs cannot begin —
// that window, multiplied by churn rate, is where the baseline loses
// availability relative to the epidemic layer.
package baseline

import (
	"math/rand"
	"sort"

	"datadroplets/internal/dht"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// Config tunes a baseline node.
type Config struct {
	// Replicas is the successor-list replication factor.
	Replicas int
	// Vnodes is virtual nodes per member. Zero means 16.
	Vnodes int
	// CheckEvery is the reactive-repair cadence in rounds. Zero means 5.
	CheckEvery int
	// View returns the membership as seen by failure detection at the
	// given round (the harness delays the true view by DetectLag).
	View func(now sim.Round) []node.ID
}

// Messages.
type (
	// Replicate stores one tuple at a replica.
	Replicate struct{ Tuple *tuple.Tuple }
	// RangeFetch asks an owner for the tuples of an arc (reactive
	// repair streaming).
	RangeFetch struct{ Arc node.Arc }
	// RangeData answers a RangeFetch.
	RangeData struct{ Tuples []*tuple.Tuple }
)

// Node is one baseline store member.
type Node struct {
	self node.ID
	rng  *rand.Rand
	cfg  Config

	ring     *dht.Ring
	viewSig  uint64
	st       map[string]*tuple.Tuple
	ownedSig map[node.Point]uint64 // arc start -> width, ownership at last check

	// Transferred counts tuples streamed by reactive repair — the
	// "overhead proportional to churn" measured in C8.
	Transferred int64
	// FetchReqs counts repair fetches issued.
	FetchReqs int64
}

var _ sim.Machine = (*Node)(nil)

// New builds a baseline node.
func New(self node.ID, rng *rand.Rand, cfg Config) *Node {
	if cfg.Replicas < 1 {
		cfg.Replicas = 3
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 16
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 5
	}
	return &Node{
		self:     self,
		rng:      rng,
		cfg:      cfg,
		ring:     dht.NewRing(cfg.Vnodes),
		st:       make(map[string]*tuple.Tuple),
		ownedSig: make(map[node.Point]uint64),
	}
}

// Put is the coordinator write path: replicate to the r successors per
// this node's current (possibly stale) view. Returns the replication
// envelopes; the caller (harness or client shim) emits them.
func (n *Node) Put(now sim.Round, t *tuple.Tuple) []sim.Envelope {
	n.refreshRing(now)
	owners := n.ring.LookupN(t.Point(), n.cfg.Replicas)
	out := make([]sim.Envelope, 0, len(owners))
	for _, o := range owners {
		if o == n.self {
			n.apply(t)
			continue
		}
		out = append(out, sim.Envelope{To: o, Msg: Replicate{Tuple: t.Clone()}})
	}
	return out
}

// Get returns the locally stored live tuple.
func (n *Node) Get(key string) (*tuple.Tuple, bool) {
	t, ok := n.st[key]
	if !ok || t.Deleted {
		return nil, false
	}
	return t.Clone(), true
}

// Has reports whether the node stores a live copy of key (oracle
// availability measurements).
func (n *Node) Has(key string) bool {
	t, ok := n.st[key]
	return ok && !t.Deleted
}

func (n *Node) apply(t *tuple.Tuple) {
	if cur, ok := n.st[t.Key]; ok && !cur.Version.Less(t.Version) {
		return
	}
	n.st[t.Key] = t.Clone()
}

// Start implements sim.Machine.
func (n *Node) Start(now sim.Round) []sim.Envelope {
	// Force an ownership re-check on reboot.
	n.viewSig = 0
	return nil
}

// Tick implements sim.Machine: refresh the failure-detector view and run
// reactive repair when ownership changed.
func (n *Node) Tick(now sim.Round) []sim.Envelope {
	if now%sim.Round(n.cfg.CheckEvery) != 0 {
		return nil
	}
	changed := n.refreshRing(now)
	if !changed {
		return nil
	}
	return n.reactiveRepair()
}

// refreshRing rebuilds the ring if the delayed view changed; reports
// whether it did.
func (n *Node) refreshRing(now sim.Round) bool {
	if n.cfg.View == nil {
		return false
	}
	view := n.cfg.View(now)
	sig := viewSignature(view)
	if sig == n.viewSig {
		return false
	}
	n.viewSig = sig
	n.ring = dht.NewRing(n.cfg.Vnodes)
	for _, id := range view {
		n.ring.Add(id)
	}
	return true
}

// reactiveRepair finds intervals this node now owns but did not before
// and streams them from surviving co-owners.
func (n *Node) reactiveRepair() []sim.Envelope {
	newOwned := make(map[node.Point]uint64)
	var out []sim.Envelope
	for _, iv := range n.ring.Intervals(n.cfg.Replicas) {
		mine := false
		for _, o := range iv.Owners {
			if o == n.self {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		newOwned[iv.Arc.Start] = iv.Arc.Width
		if w, had := n.ownedSig[iv.Arc.Start]; had && w == iv.Arc.Width {
			continue // already owned before: nothing to stream
		}
		// Newly owned range: fetch from the first co-owner.
		for _, o := range iv.Owners {
			if o != n.self {
				n.FetchReqs++
				out = append(out, sim.Envelope{To: o, Msg: RangeFetch{Arc: iv.Arc}})
				break
			}
		}
	}
	n.ownedSig = newOwned
	return out
}

// Handle implements sim.Machine.
func (n *Node) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	switch m := msg.(type) {
	case Replicate:
		n.apply(m.Tuple)
	case RangeFetch:
		keys := make([]string, 0, 16)
		for k := range n.st {
			if m.Arc.Contains(node.HashKey(k)) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			return nil
		}
		tuples := make([]*tuple.Tuple, 0, len(keys))
		for _, k := range keys {
			tuples = append(tuples, n.st[k].Clone())
		}
		n.Transferred += int64(len(tuples))
		return []sim.Envelope{{To: from, Msg: RangeData{Tuples: tuples}}}
	case RangeData:
		for _, t := range m.Tuples {
			n.apply(t)
		}
	}
	return nil
}

// viewSignature hashes a membership view for change detection.
func viewSignature(view []node.ID) uint64 {
	var h uint64 = 14695981039346656037
	for _, id := range view {
		h = (h ^ uint64(id)) * 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// DelayedViewProvider records the true membership each round and serves
// it with a fixed lag — the failure-detection model shared by every
// baseline node in a simulation.
type DelayedViewProvider struct {
	lag     int
	history [][]node.ID
}

// NewDelayedViewProvider creates a provider with the given detection lag
// in rounds.
func NewDelayedViewProvider(lag int) *DelayedViewProvider {
	if lag < 0 {
		lag = 0
	}
	return &DelayedViewProvider{lag: lag}
}

// Record snapshots the true membership for the current round; call once
// per round before stepping the network.
func (p *DelayedViewProvider) Record(alive []node.ID) {
	snap := make([]node.ID, len(alive))
	copy(snap, alive)
	p.history = append(p.history, snap)
}

// View returns the membership as seen with the configured lag.
func (p *DelayedViewProvider) View(now sim.Round) []node.ID {
	if len(p.history) == 0 {
		return nil
	}
	idx := int(now) - p.lag
	if idx < 0 {
		idx = 0
	}
	if idx >= len(p.history) {
		idx = len(p.history) - 1
	}
	return p.history[idx]
}
