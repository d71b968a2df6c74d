// Package sieve implements the paper's local storage decision: "upon
// reception of a new message, nodes locally decide if the message falls
// into the sieve range" (§III-A). A sieve is the only piece of state a
// node needs to know its storage responsibility — no global placement
// table, no master.
//
// Four sieve families are provided, mirroring §III:
//
//   - Uniform: keep a tuple with probability r/N̂ ("a simple sieve
//     function could simply store locally an item with probability given
//     by 1/number of nodes ... extended to take into account the
//     replication degree, r, as r/number of nodes").
//   - Range: keep tuples whose key hashes into the node's arcs of the key
//     ring ("similar to what is done in structured DHT approaches where
//     each node is responsible for a given portion of the key space").
//   - Quantile: distribution-aware — keep tuples whose attribute value
//     falls in the node's interval of the *estimated global CDF*, so
//     "sieves located near the mean ± standard deviation [are] much finer
//     than sieves outside that region" while every node carries equal
//     probability mass (§III-B1).
//   - Tag: correlation-aware — keep tuples whose primary tag hashes into
//     the node's arcs, collocating related tuples on the same nodes
//     (§III-B1 item collocation, after [18]).
//
// All keep decisions are deterministic functions of (node, tuple, current
// estimates): epidemic re-delivery is idempotent, and a rebooted node
// re-derives the same responsibility.
//
// Sieve grain scales with a per-node capacity factor, the paper's answer
// to "nodes with disparate storage capabilities".
package sieve

import (
	"math"

	"datadroplets/internal/histogram"
	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// Sieve is the local keep decision.
type Sieve interface {
	// Keep reports whether this node should store the tuple.
	Keep(t *tuple.Tuple) bool
	// Grain is the fraction of the data space this sieve retains
	// (the expected share of all tuples stored locally).
	Grain() float64
}

// ArcSieve is a sieve whose responsibility is expressible as ring arcs,
// enabling exact coverage checking and range repair. Range, Quantile and
// Tag sieves are ArcSieves (Quantile arcs live in CDF space); Uniform is
// not (its decisions are per-key pseudo-random).
type ArcSieve interface {
	Sieve
	// Arcs returns the current responsibility arcs. The space the arcs
	// partition is sieve-specific but consistent across nodes using the
	// same sieve family, which is all coverage analysis needs.
	Arcs() []node.Arc
}

// PointCoverer is implemented by arc sieves that answer point-coverage
// queries against their cached arcs. Hot paths (walk probes, orphan
// sweeps) prefer it over Arcs(), which copies.
type PointCoverer interface {
	CoversPoint(p node.Point) bool
}

// Config carries the parameters shared by all sieve families.
type Config struct {
	// Replication is the target number of copies r.
	Replication int
	// SizeEstimate returns N̂, the current system-size estimate (from
	// the epidemic estimator; tests may use a constant).
	SizeEstimate func() float64
	// CapacityFactor scales the sieve grain: 2.0 stores twice the
	// uniform share, 0.5 half. Zero means 1.
	CapacityFactor float64
	// VirtualArcs smooths range-based sieves over several smaller arcs
	// (virtual nodes). Zero means 4.
	VirtualArcs int
}

func (c Config) normalized() Config {
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.CapacityFactor <= 0 {
		c.CapacityFactor = 1
	}
	if c.VirtualArcs < 1 {
		c.VirtualArcs = 4
	}
	return c
}

// fraction returns the target retained fraction r/N̂ scaled by capacity,
// clamped to [0, 1].
func (c Config) fraction() float64 {
	n := 2.0
	if c.SizeEstimate != nil {
		if est := c.SizeEstimate(); est > 2 {
			n = est
		}
	}
	f := float64(c.Replication) / n * c.CapacityFactor
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	default:
		return f
	}
}

// Uniform keeps each tuple with probability r/N̂, decided by hashing the
// (node, key) pair — deterministic per node yet independent across nodes.
type Uniform struct {
	self node.ID
	cfg  Config
}

var _ Sieve = (*Uniform)(nil)

// NewUniform builds a uniform sieve for self.
func NewUniform(self node.ID, cfg Config) *Uniform {
	return &Uniform{self: self, cfg: cfg.normalized()}
}

// Keep implements Sieve.
func (u *Uniform) Keep(t *tuple.Tuple) bool {
	f := u.cfg.fraction()
	threshold := uint64(f * math.MaxUint64)
	return uint64(node.HashPair(u.self, t.Key)) < threshold
}

// Grain implements Sieve.
func (u *Uniform) Grain() float64 { return u.cfg.fraction() }

// Range keeps tuples whose key point falls into the node's virtual arcs.
type Range struct {
	self   node.ID
	cfg    Config
	starts []node.Point

	arcCache arcCache
}

// arcCache memoises the materialised arcs of an arc sieve against the
// retained fraction they were computed from. Keep() runs on every rumor
// delivery at every node, and rebuilding the arc slice there was one
// allocation per sieve decision; the fraction only moves when the size
// estimate does.
type arcCache struct {
	frac float64
	arcs []node.Arc
}

// get returns the arcs for fraction f over the given anchor points,
// rebuilding in place only when f changed. The returned slice is shared:
// callers must not mutate or hand it out (exported Arcs() copies).
func (c *arcCache) get(starts []node.Point, f float64) []node.Arc {
	if c.arcs == nil || c.frac != f {
		if c.arcs == nil {
			c.arcs = make([]node.Arc, len(starts))
		}
		per := f / float64(len(starts))
		for i, s := range starts {
			c.arcs[i] = node.ArcFromFraction(s, per)
		}
		c.frac = f
	}
	return c.arcs
}

var _ ArcSieve = (*Range)(nil)

// NewRange builds a range sieve for self with arcs anchored at points
// derived from the node ID (stable across reboots).
func NewRange(self node.ID, cfg Config) *Range {
	cfg = cfg.normalized()
	starts := make([]node.Point, cfg.VirtualArcs)
	for i := range starts {
		starts[i] = node.HashID(self + node.ID(uint64(i)<<48))
	}
	return &Range{self: self, cfg: cfg, starts: starts}
}

// arcs returns the (cached, shared) responsibility arcs.
func (r *Range) arcs() []node.Arc {
	return r.arcCache.get(r.starts, r.cfg.fraction())
}

// Arcs implements ArcSieve: VirtualArcs arcs, each carrying an equal share
// of the node's total fraction. The slice is the caller's to keep.
func (r *Range) Arcs() []node.Arc {
	return append([]node.Arc(nil), r.arcs()...)
}

// Keep implements Sieve.
func (r *Range) Keep(t *tuple.Tuple) bool {
	return r.CoversPoint(t.Point())
}

// CoversPoint reports whether the sieve's current arcs contain p,
// without materialising a fresh arc slice.
func (r *Range) CoversPoint(p node.Point) bool {
	for _, a := range r.arcs() {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// Grain implements Sieve.
func (r *Range) Grain() float64 { return r.cfg.fraction() }

// Quantile is the distribution-aware sieve: responsibility is an interval
// of the estimated global CDF of one attribute. Because the interval is
// equal *probability mass* for every node, dense value regions get
// proportionally finer sieves — precise collocation plus load balance.
type Quantile struct {
	self node.ID
	attr string
	hist func() *histogram.EquiDepth
	cfg  Config
	// fallback handles tuples lacking the attribute.
	fallback *Range
	starts   []node.Point

	arcCache arcCache
}

var _ ArcSieve = (*Quantile)(nil)

// NewQuantile builds a distribution-aware sieve over attr. hist supplies
// the node's current estimate of the global distribution (nil while the
// estimator warms up, during which the fallback range sieve applies).
func NewQuantile(self node.ID, attr string, hist func() *histogram.EquiDepth, cfg Config) *Quantile {
	cfg = cfg.normalized()
	starts := make([]node.Point, cfg.VirtualArcs)
	for i := range starts {
		starts[i] = node.HashID(self + node.ID(uint64(i)<<48) + node.ID(uint64(node.HashKey(attr))))
	}
	return &Quantile{
		self:     self,
		attr:     attr,
		hist:     hist,
		cfg:      cfg,
		fallback: NewRange(self, cfg),
		starts:   starts,
	}
}

// arcs returns the (cached, shared) responsibility arcs.
func (q *Quantile) arcs() []node.Arc {
	return q.arcCache.get(q.starts, q.cfg.fraction())
}

// Arcs implements ArcSieve. The arcs live on the "CDF ring": a value v
// maps to point CDF(v) * 2^64, so equal arc widths are equal probability
// masses. The slice is the caller's to keep.
func (q *Quantile) Arcs() []node.Arc {
	return append([]node.Arc(nil), q.arcs()...)
}

// Keep implements Sieve.
func (q *Quantile) Keep(t *tuple.Tuple) bool {
	h := q.hist()
	v, ok := t.Attr(q.attr)
	if h == nil || !ok {
		return q.fallback.Keep(t)
	}
	p := CDFPoint(h, v)
	for _, a := range q.arcs() {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// CoversPoint reports whether the sieve's current CDF-ring arcs contain
// p, without materialising a fresh arc slice.
func (q *Quantile) CoversPoint(p node.Point) bool {
	for _, a := range q.arcs() {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// Grain implements Sieve.
func (q *Quantile) Grain() float64 { return q.cfg.fraction() }

// ValueBounds returns the attribute-value intervals this node is
// responsible for under the current histogram — the basis for ordered
// scans and "which node holds values near x" routing.
func (q *Quantile) ValueBounds() [][2]float64 {
	h := q.hist()
	if h == nil {
		return nil
	}
	arcs := q.Arcs()
	out := make([][2]float64, 0, len(arcs))
	for _, a := range arcs {
		lo := h.Quantile(float64(a.Start) / math.Exp2(64))
		hi := h.Quantile(float64(a.End()) / math.Exp2(64))
		out = append(out, [2]float64{lo, hi})
	}
	return out
}

// CDFPoint maps an attribute value onto the CDF ring.
func CDFPoint(h *histogram.EquiDepth, v float64) node.Point {
	c := h.CDF(v)
	if c >= 1 {
		c = math.Nextafter(1, 0)
	}
	return node.Point(c * math.Exp2(64))
}

// Tag collocates tuples by primary tag: the keep decision hashes the tag,
// not the key, so all tuples sharing a tag land on the same nodes.
type Tag struct {
	self  node.ID
	cfg   Config
	inner *Range
}

var _ ArcSieve = (*Tag)(nil)

// NewTag builds a correlation sieve for self.
func NewTag(self node.ID, cfg Config) *Tag {
	return &Tag{self: self, cfg: cfg.normalized(), inner: NewRange(self, cfg)}
}

// Arcs implements ArcSieve (arcs live on the tag-hash ring).
func (s *Tag) Arcs() []node.Arc { return s.inner.Arcs() }

// Keep implements Sieve.
func (s *Tag) Keep(t *tuple.Tuple) bool {
	tag := t.PrimaryTag()
	if tag == "" {
		return s.inner.Keep(t) // untagged tuples fall back to key hashing
	}
	return s.inner.CoversPoint(node.HashKey(tag))
}

// CoversPoint reports whether the sieve's current arcs contain p.
func (s *Tag) CoversPoint(p node.Point) bool { return s.inner.CoversPoint(p) }

// Grain implements Sieve.
func (s *Tag) Grain() float64 { return s.inner.Grain() }
