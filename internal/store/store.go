// Package store is the node-local storage engine of the persistent-state
// layer: an ordered, versioned tuple map with range scans and per-arc
// digests for anti-entropy. Entries are ordered by key in a skip list —
// scans, repair cursors and deterministic walks need that order — and
// found by key through a hash index beside it, so point reads and
// overwrites never descend the list.
//
// Concurrency: a Store is confined to its owning node machine (simulator
// rounds or the live node's event loop); it is not safe for concurrent
// use and does not lock. This mirrors the protocol-as-state-machine
// convention described in docs/DESIGN.md §1.
//
// Write semantics are last-writer-wins on tuple.Version. The soft-state
// layer orders writes, so version comparison makes epidemic re-delivery
// and anti-entropy merges idempotent and commutative: any subset of
// deliveries in any order converges to the same state. Deletes are
// tombstones and disseminate like writes.
package store

import (
	"fmt"
	"math/rand"
	"sort"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

const (
	maxLevel = 24
	levelP   = 0.25
)

type skipNode struct {
	key   string
	tup   *tuple.Tuple
	next  []*skipNode
	point node.Point // cached ring position of key
	bslot int32      // slot in the ring-bucket index (see ringindex.go)
}

// attrStat is the incrementally maintained summary of one attribute over
// live tuples. Sum and count are exact under add/remove; min/max are
// exact while fresh and recomputed lazily after a removal knocks out the
// current extreme (removal cannot tighten an extreme incrementally).
type attrStat struct {
	sum      float64
	count    int
	min, max float64
	fresh    bool // extremes valid; false forces lazy recompute
}

// Store is one node's tuple storage.
type Store struct {
	rng   *rand.Rand
	head  *skipNode
	level int
	// byKey is the point index: every skip-list node under its key,
	// kept equal to the list by Apply/Discard/Wipe. It is the only point
	// path — find never falls back to a descent — and the list is the
	// only ordered one.
	byKey map[string]*skipNode
	total int   // entries including tombstones
	live  int   // entries excluding tombstones
	bytes int64 // approximate payload bytes of live entries

	// stats holds per-attribute aggregates maintained in Apply/Discard so
	// the background protocols (push-sum aggregation, extremes) read
	// node-local sums in O(1) instead of re-walking and cloning the
	// whole store every epoch.
	stats map[string]*attrStat

	// floors records supersession watermarks: keys whose local copy was
	// discarded as redundant (Discard), with the highest version known
	// to be durably held elsewhere at that moment. Apply refuses
	// versions at or below the floor, so a retired copy cannot be
	// resurrected by late or replayed traffic — gossip redelivery,
	// in-flight sync pushes, adoption payloads. A strictly newer apply
	// lifts the floor (the held copy then carries the ordering itself).
	floors    map[string]floorEntry
	floorRing []floorSlot // insertion order, for deterministic eviction
	floorGen  uint64      // ties ring slots to their map entries

	// idx is the ring-bucket digest index (ringindex.go): maintained
	// incrementally by Apply/Discard so arc digests and arc iteration cost
	// O(|arc| + buckets) instead of a full store walk.
	idx ringIndex

	// Serve-cost counters: how much work answering arc queries
	// (DigestArc, SegmentDigests, ArcRefs and its derivatives) actually
	// did. serveOps counts queries, serveScanned entries examined one by
	// one in partial boundary buckets, serveFolded whole buckets
	// composed from their precomputed digest. They survive Wipe — they
	// are diagnostics of the serving path, not of the content.
	serveOps     int64
	serveScanned int64
	serveFolded  int64
	// descents counts skip-list descents (descend): one per new-key
	// Apply and per Discard of a present key, none for any point read,
	// overwrite or stale Apply. In-package tests pin those exact counts.
	descents int64
}

// floorEntry is one supersession watermark; gen identifies the ring
// slot that owns it, so a slot left behind by a lifted-then-reset floor
// cannot evict the newer entry in its place.
type floorEntry struct {
	v   tuple.Version
	gen uint64
}

// floorSlot is one insertion-order record of the floor ring.
type floorSlot struct {
	key string
	gen uint64
}

// maxFloors bounds the watermark map; the oldest entries are evicted
// first, after which an ancient replay could in principle resurrect a
// copy — it would then be superseded again, exactly once more.
const maxFloors = 8192

// New creates an empty store. The rand source drives skiplist level
// choice only; determinism of the whole simulation requires it to come
// from the node's seeded RNG. The three maps stay nil until their first
// write, so an empty store carries no hash table.
func New(rng *rand.Rand) *Store {
	return &Store{
		rng:  rng,
		head: &skipNode{next: make([]*skipNode, maxLevel)},
		idx:  newRingIndex(),
	}
}

// randomLevel draws a geometric level in [1, maxLevel].
func (s *Store) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Float64() < levelP {
		lvl++
	}
	return lvl
}

// find returns the node with the key, or nil: one probe of the point
// index, whatever the store's size.
func (s *Store) find(key string) *skipNode {
	return s.byKey[key]
}

// descend fills path with the rightmost node before key at every level
// — what linking a new node in, or an old one out, needs. stop remembers
// the node whose key is already known to be >= key: descending levels
// keep running into the node that ended the level above, and a pointer
// compare is much cheaper than re-comparing its key.
func (s *Store) descend(key string, path *[maxLevel]*skipNode) {
	s.descents++
	for i := s.level; i < maxLevel; i++ {
		path[i] = s.head
	}
	x := s.head
	var stop *skipNode
	for i := s.level - 1; i >= 0; i-- {
		for {
			nxt := x.next[i]
			if nxt == nil || nxt == stop {
				break
			}
			if nxt.key < key {
				x = nxt
				continue
			}
			stop = nxt
			break
		}
		path[i] = x
	}
}

// Apply merges one tuple under last-writer-wins. It returns true if the
// tuple was newer than local state (and above any supersession floor)
// and was applied. An applied tuple is retained, not copied: tuples are
// immutable once sequenced (docs/DESIGN.md §1), so the caller gives up
// the right to change t or anything it points to.
func (s *Store) Apply(t *tuple.Tuple) bool {
	if f, ok := s.floors[t.Key]; ok && !f.v.Less(t.Version) {
		return false // at or below the supersession watermark
	}
	if existing := s.find(t.Key); existing != nil {
		if !existing.tup.Version.Less(t.Version) {
			return false // stale or duplicate
		}
		s.accountRemove(existing.tup)
		oldV := existing.tup.Version
		existing.tup = t
		s.idx.replace(existing.point, oldV, t.Version)
		s.accountAdd(t)
		delete(s.floors, t.Key) // newer content re-admitted: floor served
		return true
	}
	var path [maxLevel]*skipNode
	s.descend(t.Key, &path)
	lvl := s.randomLevel()
	if lvl > s.level {
		s.level = lvl
	}
	n := &skipNode{
		key:   t.Key,
		tup:   t,
		next:  make([]*skipNode, lvl),
		point: node.HashKey(t.Key),
	}
	for i := 0; i < lvl; i++ {
		n.next[i] = path[i].next[i]
		path[i].next[i] = n
	}
	s.total++
	if s.byKey == nil {
		s.byKey = make(map[string]*skipNode)
	}
	s.byKey[t.Key] = n
	s.idx.add(n)
	s.idx.maybeGrow(s.total)
	s.accountAdd(n.tup)
	delete(s.floors, t.Key) // newer content re-admitted: floor served
	return true
}

// Discard physically removes an entry (no tombstone: not a delete in
// the data model sense) and records a supersession floor at the maximum
// of the stored version and the given one — the version some
// responsible replica confirmed holding. Future Applies at or below the
// floor are refused, so the discarded copy cannot be resurrected by late
// or replayed traffic. It is the store's only removal path: the repair
// layer's supersession and orphan-handoff paths use it.
func (s *Store) Discard(key string, floor tuple.Version) bool {
	n := s.find(key)
	if n != nil && floor.Less(n.tup.Version) {
		floor = n.tup.Version
	}
	s.setFloor(key, floor)
	return s.unlink(n)
}

// setFloor records or raises a key's supersession watermark, evicting
// the oldest entries beyond maxFloors in insertion order. Ring slots
// carry the generation of the map entry they were created for, so a
// slot left behind by a floor that was lifted and later re-set cannot
// evict the newer entry out of turn.
func (s *Store) setFloor(key string, v tuple.Version) {
	if v.IsZero() {
		return
	}
	if cur, ok := s.floors[key]; ok {
		if cur.v.Less(v) {
			cur.v = v
			s.floors[key] = cur // gen unchanged: same ring slot owns it
		}
		return
	}
	if s.floors == nil {
		s.floors = make(map[string]floorEntry)
	}
	s.floorGen++
	s.floors[key] = floorEntry{v: v, gen: s.floorGen}
	s.floorRing = append(s.floorRing, floorSlot{key: key, gen: s.floorGen})
	for len(s.floors) > maxFloors && len(s.floorRing) > 0 {
		old := s.floorRing[0]
		s.floorRing = s.floorRing[1:]
		if e, ok := s.floors[old.key]; ok && e.gen == old.gen {
			delete(s.floors, old.key)
		}
	}
	// Compact the ring once it is dominated by dead slots (lifted floors
	// leave their slots behind): without this, a key cycling through
	// discard and re-admission grows the ring forever while the map
	// stays small. Amortised O(1).
	if len(s.floorRing) > 2*len(s.floors)+16 {
		kept := s.floorRing[:0]
		for _, sl := range s.floorRing {
			if e, live := s.floors[sl.key]; live && e.gen == sl.gen {
				kept = append(kept, sl)
			}
		}
		s.floorRing = kept
	}
}

// Floor returns the supersession watermark for key, if any.
func (s *Store) Floor(key string) (tuple.Version, bool) {
	e, ok := s.floors[key]
	return e.v, ok
}

// ClearFloor removes a key's supersession watermark. The repair layer
// calls it when the node becomes responsible for the key again
// (adoption, sieve growth): a keeper must be able to re-accept the very
// version it once retired as a redundant bystander copy, or the range
// can never restore its replica count from the surviving copies.
func (s *Store) ClearFloor(key string) {
	delete(s.floors, key)
}

func (s *Store) accountAdd(t *tuple.Tuple) {
	if t.Deleted {
		return
	}
	s.live++
	s.bytes += int64(len(t.Value))
	for name, v := range t.Attrs {
		st := s.stats[name]
		if st == nil {
			if s.stats == nil {
				s.stats = make(map[string]*attrStat)
			}
			st = &attrStat{fresh: true}
			s.stats[name] = st
		}
		st.sum += v
		st.count++
		if st.fresh {
			if st.count == 1 || v < st.min {
				st.min = v
			}
			if st.count == 1 || v > st.max {
				st.max = v
			}
		}
	}
}

func (s *Store) accountRemove(t *tuple.Tuple) {
	if t.Deleted {
		return
	}
	s.live--
	s.bytes -= int64(len(t.Value))
	for name, v := range t.Attrs {
		st := s.stats[name]
		if st == nil {
			continue // unreachable: every live attr was accounted on add
		}
		st.count--
		if st.count == 0 {
			// Reset exactly: no floating-point residue survives an empty
			// attribute, and the extremes become trivially fresh again.
			*st = attrStat{fresh: true}
			continue
		}
		st.sum -= v
		if st.fresh && (v <= st.min || v >= st.max) {
			st.fresh = false // the surviving extreme must be rediscovered
		}
	}
}

// recomputeExtremes walks live tuples once to restore an attribute's
// min/max after a removal invalidated them. Amortised: it only runs when
// AttrExtremes is asked about a stale attribute.
func (s *Store) recomputeExtremes(name string, st *attrStat) {
	first := true
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if e.tup.Deleted {
			continue
		}
		v, ok := e.tup.Attrs[name]
		if !ok {
			continue
		}
		if first || v < st.min {
			st.min = v
		}
		if first || v > st.max {
			st.max = v
		}
		first = false
	}
	st.fresh = true
}

// AttrSum returns the sum and count of attr over live tuples, maintained
// incrementally — the O(1) read the push-sum aggregation layer polls
// every epoch. The sum is within floating-point accumulation error of a
// fresh walk (additions and subtractions are applied in arrival order).
func (s *Store) AttrSum(attr string) (sum float64, count int) {
	st := s.stats[attr]
	if st == nil {
		return 0, 0
	}
	return st.sum, st.count
}

// AttrExtremes returns the min/max of attr over live tuples, or ok=false
// when no live tuple carries the attribute. O(1) while extremes are
// fresh; a removal that hit the extreme triggers one lazy O(keys)
// recompute on the next call.
func (s *Store) AttrExtremes(attr string) (lo, hi float64, ok bool) {
	st := s.stats[attr]
	if st == nil || st.count == 0 {
		return 0, 0, false
	}
	if !st.fresh {
		s.recomputeExtremes(attr, st)
	}
	return st.min, st.max, true
}

// Get returns a clone of the live tuple, or (nil, false) if absent or
// tombstoned.
func (s *Store) Get(key string) (*tuple.Tuple, bool) {
	t, ok := s.Peek(key)
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// Peek is Get without the clone: a BORROWED reference to the live tuple
// under the ForEachRef contract — the caller must not mutate it or
// anything it points to. Unlike an iteration reference it may be
// retained: a stored tuple is immutable once sequenced (docs/DESIGN.md
// §1), and an overwrite replaces the pointer rather than the contents.
func (s *Store) Peek(key string) (*tuple.Tuple, bool) {
	n := s.find(key)
	if n == nil || n.tup.Deleted {
		return nil, false
	}
	return n.tup, true
}

// GetAny returns the entry even if it is a tombstone — anti-entropy needs
// tombstone versions to propagate deletes.
func (s *Store) GetAny(key string) (*tuple.Tuple, bool) {
	n := s.find(key)
	if n == nil {
		return nil, false
	}
	return n.tup.Clone(), true
}

// Version returns the stored version for key (tombstones included), or a
// zero version if absent.
func (s *Store) Version(key string) tuple.Version {
	n := s.find(key)
	if n == nil {
		return tuple.Version{}
	}
	return n.tup.Version
}

// unlink removes a held node from the list, both indexes and the
// accounting, and reports whether there was one (n may be nil).
func (s *Store) unlink(n *skipNode) bool {
	if n == nil {
		return false
	}
	var path [maxLevel]*skipNode
	s.descend(n.key, &path)
	for i := 0; i < len(n.next); i++ {
		if path[i].next[i] == n {
			path[i].next[i] = n.next[i]
		}
	}
	s.total--
	delete(s.byKey, n.key)
	s.idx.remove(n)
	s.accountRemove(n.tup)
	return true
}

// Wipe discards every entry, attribute statistic, and supersession
// floor, returning the store to its freshly-created state. The level
// RNG and cumulative counters (serve costs, descents) are kept: Wipe
// models a node losing its data, not being replaced — so the hash
// tables are emptied in place for the refill, not reallocated.
func (s *Store) Wipe() {
	s.head = &skipNode{next: make([]*skipNode, maxLevel)}
	s.level = 0
	s.total = 0
	s.live = 0
	s.bytes = 0
	clear(s.byKey)
	clear(s.stats)
	clear(s.floors)
	s.floorRing = nil
	s.idx = newRingIndex()
}

// Len returns the number of live (non-tombstone) tuples.
func (s *Store) Len() int { return s.live }

// Total returns all entries including tombstones.
func (s *Store) Total() int { return s.total }

// Bytes returns the approximate live payload size.
func (s *Store) Bytes() int64 { return s.bytes }

// ForEachRef visits every entry, tombstones included, in key order,
// passing BORROWED references: the callback must not mutate the tuple
// (including its Value/Attrs/Tags contents) and must not retain the
// pointer past its return — clone first if either is needed. In exchange
// the walk allocates nothing, which is what keeps the background
// protocols' per-epoch store passes off the allocator at paper scale.
func (s *Store) ForEachRef(fn func(*tuple.Tuple) bool) {
	for e := s.head.next[0]; e != nil; e = e.next[0] {
		if !fn(e.tup) {
			return
		}
	}
}

// ScanRef visits entries with key >= from in key order, tombstones
// included, until fn returns false or limit entries have been visited
// (limit <= 0 means no limit). It carries the same contract as
// ForEachRef: no mutation, no retention. The repair layer's orphan sweep
// uses it: tombstones must be handed off like live tuples or deletes
// un-happen.
func (s *Store) ScanRef(from string, limit int, fn func(*tuple.Tuple) bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < from {
			x = x.next[i]
		}
	}
	n := 0
	for e := x.next[0]; e != nil; e = e.next[0] {
		if limit > 0 && n >= limit {
			return
		}
		n++
		if !fn(e.tup) {
			return
		}
	}
}

// KeysInArc returns the keys (tombstones included) whose ring point lies
// in the arc, in key order — the unit of responsibility sieves and
// repair reason about.
func (s *Store) KeysInArc(arc node.Arc) []string {
	var out []string
	s.ArcRefs(arc, func(key string, _ node.Point, _ tuple.Version) bool {
		out = append(out, key)
		return true
	})
	sort.Strings(out)
	return out
}

// DigestArc summarises the (key, version) pairs inside the arc as an
// order-independent 64-bit digest. Two replicas with equal digests hold
// identical data for the range with overwhelming probability; unequal
// digests trigger key-level reconciliation. Served from the ring-bucket
// index: whole buckets inside the arc fold in O(1), only boundary
// buckets are scanned.
func (s *Store) DigestArc(arc node.Arc) uint64 {
	s.serveOps++
	var d uint64
	s.idx.forArcBuckets(arc, func(b *ringBucket, _ node.Arc, whole bool) bool {
		if whole {
			d ^= b.digest
			s.serveFolded++
			return true
		}
		s.serveScanned += int64(len(b.ents))
		for _, e := range b.ents {
			if arc.Contains(e.point) {
				d ^= entryHashPoint(e.point, e.tup.Version)
			}
		}
		return true
	})
	return d
}

// SegmentDigests summarises the arc as n per-segment digests (the arc
// split into n equal sub-ranges, remainder folded into the last — see
// node.Arc.SubArc) plus the entry count per segment. Two replicas
// compare segment vectors and recurse only into mismatching segments,
// turning whole-arc reconciliation into a digest tree. Served from the
// ring-bucket index: a whole bucket that falls inside a single segment
// folds in O(1); buckets straddling a segment boundary (and the arc's
// partial boundary buckets) are scanned. Panics if arc.Width < n — a
// narrower arc cannot be split into n non-empty segments and would
// silently mis-bucket every entry (segment width truncates to zero).
func (s *Store) SegmentDigests(arc node.Arc, n int) (digests []uint64, counts []int) {
	if n < 1 || arc.Width < uint64(n) {
		panic(fmt.Sprintf("store: SegmentDigests: arc %v narrower than %d segments", arc, n))
	}
	s.serveOps++
	digests = make([]uint64, n)
	counts = make([]int, n)
	s.idx.forArcBuckets(arc, func(b *ringBucket, span node.Arc, whole bool) bool {
		if len(b.ents) == 0 {
			return true
		}
		if whole {
			lo := arc.SegIndex(span.Start, n)
			hi := arc.SegIndex(span.Start+node.Point(span.Width-1), n)
			if lo == hi {
				digests[lo] ^= b.digest
				counts[lo] += len(b.ents)
				s.serveFolded++
				return true
			}
		}
		s.serveScanned += int64(len(b.ents))
		for _, e := range b.ents {
			if whole || arc.Contains(e.point) {
				i := arc.SegIndex(e.point, n)
				digests[i] ^= entryHashPoint(e.point, e.tup.Version)
				counts[i]++
			}
		}
		return true
	})
	return digests, counts
}

// ArcRefs visits entries (tombstones included) whose ring point lies in
// the arc, passing the key, its cached ring point and the stored
// version — borrowed iteration over only the arc's index buckets. The
// visit order is deterministic (bucket order along the arc, insertion
// history within a bucket) but NOT key order: callers that need an
// order sort what they collect. The callback must not mutate the store.
func (s *Store) ArcRefs(arc node.Arc, fn func(key string, p node.Point, v tuple.Version) bool) {
	s.serveOps++
	s.idx.forArcBuckets(arc, func(b *ringBucket, _ node.Arc, whole bool) bool {
		s.serveScanned += int64(len(b.ents))
		for _, e := range b.ents {
			if whole || arc.Contains(e.point) {
				if !fn(e.key, e.point, e.tup.Version) {
					return false
				}
			}
		}
		return true
	})
}

// VersionsInArc returns key -> version for the arc, the exchange unit of
// range reconciliation. Allocates a fresh map per call; the repair hot
// path uses AppendVersionsInArc instead.
func (s *Store) VersionsInArc(arc node.Arc) map[string]tuple.Version {
	out := make(map[string]tuple.Version)
	s.ArcRefs(arc, func(key string, _ node.Point, v tuple.Version) bool {
		out[key] = v
		return true
	})
	return out
}

// VersionEntry is one (key, ring point, version) row of an arc's
// population, as returned by AppendVersionsInArc.
type VersionEntry struct {
	Key     string
	Point   node.Point
	Version tuple.Version
}

// AppendVersionsInArc appends the arc's entries (tombstones included) to
// dst and returns the slice sorted by key — the allocation-reusing
// counterpart of VersionsInArc for per-round reconciliation: callers
// pass last round's buffer truncated to dst[:0] and the append reuses
// its capacity.
func (s *Store) AppendVersionsInArc(dst []VersionEntry, arc node.Arc) []VersionEntry {
	s.ArcRefs(arc, func(key string, p node.Point, v tuple.Version) bool {
		dst = append(dst, VersionEntry{Key: key, Point: p, Version: v})
		return true
	})
	sort.Slice(dst, func(i, j int) bool { return dst[i].Key < dst[j].Key })
	return dst
}

// ServeStats reports the cumulative cost of serving arc queries: ops is
// the number of DigestArc/SegmentDigests/ArcRefs-family calls, scanned
// the entries examined one by one in partial buckets, folded the whole
// buckets composed from their precomputed digest. scanned/ops far below
// Total() is the signature of incremental serving; scanned ≈ ops ×
// Total() would mean full store scans are back.
func (s *Store) ServeStats() (ops, scanned, folded int64) {
	return s.serveOps, s.serveScanned, s.serveFolded
}

// entryHash mixes key and version into one 64-bit value.
func entryHash(key string, v tuple.Version) uint64 {
	h := uint64(node.HashKey(key))
	h ^= v.Seq * 0x9e3779b97f4a7c15
	h ^= uint64(v.Writer) * 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}
