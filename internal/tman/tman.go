// Package tman implements gossip-based topology construction after
// Jelasity, Montresor & Babaoglu's T-Man (the paper's [32]), which
// §III-B2 identifies as the way to order nodes by the values they store:
// "it is possible to establish a partial order among nodes and have them
// converge to the proper neighborhood using well-known methods".
//
// Each node carries a profile value (its coordinate in one attribute's
// value space, e.g. the midpoint of its quantile sieve). Nodes gossip
// candidate descriptors and greedily keep the view entries closest to
// their own value on either side. The emergent structure is a sorted
// line: every node knows its value-order successor and predecessor, which
// is exactly what range scans walk. Multiple orderings (one per indexed
// attribute) are just independent Overlay instances — experiment C11
// measures their cost, the concern §III-B2 raises about "several
// contending such organizations".
package tman

import (
	"math/rand"
	"sort"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
)

// Descriptor advertises one node's profile value. Age counts rounds since
// the descriptor left its origin (which always advertises itself at age
// 0): merging keeps the freshest copy, and entries older than maxAge are
// evicted, which is how descriptors of dead nodes eventually disappear
// from every view — without it, a dead node that was somebody's closest
// neighbour would be retained forever.
type Descriptor struct {
	ID    node.ID
	Value float64
	Age   int
}

// Exchange is the gossip message: the sender's best view plus itself.
// Reply distinguishes answers (which must not be answered again).
type Exchange struct {
	Attr    string
	Entries []Descriptor
	Reply   bool
}

// Config tunes an overlay instance.
type Config struct {
	// Attr names the attribute this overlay orders by; exchanges carry
	// it so several overlays can share one transport.
	Attr string
	// ViewSize is the number of neighbours kept (half below, half
	// above). Zero means 8.
	ViewSize int
}

// maxAge evicts descriptors not refreshed by their origin within this
// many rounds.
const maxAge = 25

// Overlay is the per-node, per-attribute ordering machine.
type Overlay struct {
	self    node.ID
	rng     *rand.Rand
	sampler membership.Sampler
	cfg     Config
	value   float64

	view []Descriptor // kept sorted by Value

	// Exchanges counts gossip exchanges initiated, the overhead metric
	// for the multiple-orderings experiment.
	Exchanges int64
}

var _ sim.Machine = (*Overlay)(nil)

// New builds an overlay for self with the given profile value. The
// sampler provides random peers both for bootstrap and for the random
// injection that keeps the ordering connected under churn.
func New(self node.ID, rng *rand.Rand, sampler membership.Sampler, value float64, cfg Config) *Overlay {
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = 8
	}
	return &Overlay{self: self, rng: rng, sampler: sampler, cfg: cfg, value: value}
}

// Self returns the owning node's ID.
func (o *Overlay) Self() node.ID { return o.self }

// Value returns the node's profile coordinate.
func (o *Overlay) Value() float64 { return o.value }

// SetValue updates the profile coordinate (e.g. after the node's sieve
// moved); the overlay re-converges around the new position.
func (o *Overlay) SetValue(v float64) { o.value = v }

// Start implements sim.Machine.
func (o *Overlay) Start(now sim.Round) []sim.Envelope { return nil }

// Tick implements sim.Machine: exchange with the best current neighbour,
// plus occasionally a random peer (T-Man's exploration step, essential
// both for bootstrap and for healing after churn).
func (o *Overlay) Tick(now sim.Round) []sim.Envelope {
	// Age every descriptor and evict the stale: dead origins stop
	// refreshing, so their descriptors cross maxAge everywhere within a
	// bounded window.
	kept := o.view[:0]
	for i := range o.view {
		o.view[i].Age++
		if o.view[i].Age <= maxAge {
			kept = append(kept, o.view[i])
		}
	}
	o.view = kept
	target := node.None
	if len(o.view) > 0 && o.rng.Float64() < 0.8 {
		// Exploit: gossip with the closest known neighbour.
		target = o.closest()
	} else if p := o.sampler.One(); p != node.None {
		// Explore: random peer.
		target = p
	}
	if target == node.None {
		return nil
	}
	o.Exchanges++
	return []sim.Envelope{{To: target, Msg: Exchange{
		Attr:    o.cfg.Attr,
		Entries: o.shareWith(),
	}}}
}

// Handle implements sim.Machine.
func (o *Overlay) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	m, ok := msg.(Exchange)
	if !ok || m.Attr != o.cfg.Attr {
		return nil
	}
	var out []sim.Envelope
	if !m.Reply {
		out = append(out, sim.Envelope{To: from, Msg: Exchange{
			Attr:    o.cfg.Attr,
			Entries: o.shareWith(),
			Reply:   true,
		}})
	}
	o.merge(m.Entries)
	return out
}

// shareWith returns the node's view plus its own age-0 descriptor.
func (o *Overlay) shareWith() []Descriptor {
	out := make([]Descriptor, 0, len(o.view)+1)
	out = append(out, Descriptor{ID: o.self, Value: o.value, Age: 0})
	out = append(out, o.view...)
	return out
}

// merge folds candidates into the view, keeping the ViewSize entries
// nearest in value (balanced between both sides where possible). On
// duplicate IDs the fresher (lower-age) descriptor wins, which is also
// how value updates propagate.
func (o *Overlay) merge(candidates []Descriptor) {
	byID := make(map[node.ID]Descriptor, len(o.view)+len(candidates))
	for _, d := range o.view {
		byID[d.ID] = d
	}
	for _, d := range candidates {
		if d.ID == o.self || d.Age > maxAge {
			continue
		}
		if cur, ok := byID[d.ID]; !ok || d.Age < cur.Age {
			byID[d.ID] = d
		}
	}
	all := make([]Descriptor, 0, len(byID))
	for _, d := range byID {
		all = append(all, d)
	}
	// Sort by value (ties by ID keep ordering deterministic).
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value < all[j].Value
		}
		return all[i].ID < all[j].ID
	})
	// Split around own value and take the nearest half from each side.
	idx := sort.Search(len(all), func(i int) bool {
		if all[i].Value != o.value {
			return all[i].Value > o.value
		}
		return all[i].ID > o.self
	})
	half := o.cfg.ViewSize / 2
	lo := idx - half
	hi := idx + (o.cfg.ViewSize - half)
	// Rebalance when one side is short.
	if lo < 0 {
		hi += -lo
		lo = 0
	}
	if hi > len(all) {
		lo -= hi - len(all)
		hi = len(all)
		if lo < 0 {
			lo = 0
		}
	}
	o.view = append(o.view[:0], all[lo:hi]...)
}

// closest returns the view entry nearest in value.
func (o *Overlay) closest() node.ID {
	best := node.None
	bestD := 0.0
	for _, d := range o.view {
		dist := d.Value - o.value
		if dist < 0 {
			dist = -dist
		}
		if best == node.None || dist < bestD {
			best, bestD = d.ID, dist
		}
	}
	return best
}

// Successor returns the view entry with the smallest value strictly
// greater than the node's own (ties by ID), or ok=false when none is
// known — the primitive range scans follow.
func (o *Overlay) Successor() (Descriptor, bool) {
	var best Descriptor
	found := false
	for _, d := range o.view {
		if d.Value < o.value || (d.Value == o.value && d.ID <= o.self) {
			continue
		}
		if !found || d.Value < best.Value || (d.Value == best.Value && d.ID < best.ID) {
			best, found = d, true
		}
	}
	return best, found
}

// Predecessor mirrors Successor on the low side.
func (o *Overlay) Predecessor() (Descriptor, bool) {
	var best Descriptor
	found := false
	for _, d := range o.view {
		if d.Value > o.value || (d.Value == o.value && d.ID >= o.self) {
			continue
		}
		if !found || d.Value > best.Value || (d.Value == best.Value && d.ID > best.ID) {
			best, found = d, true
		}
	}
	return best, found
}
