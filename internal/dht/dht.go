// Package dht implements the structured substrate of the soft-state
// layer (§II): a consistent-hash ring with virtual nodes that partitions
// the key space among soft-state nodes "in order to achieve
// load-balancing and unequivocal responsibility for partitions", plus the
// per-key write sequencer that gives the persistent layer its one
// assumption — "write operations are correctly ordered by the soft-state
// layer" — and the metadata directory ("maintaining knowledge of some of
// the nodes that store the data in the persistent-state layer is ... a
// straightforward technique to improve operation performance").
//
// Everything here is soft state: it lives in memory and is reconstructed
// from the persistent layer after a catastrophic failure (experiment
// C14). The same Ring type doubles as the routing table of the
// structured baseline store used in C8.
package dht

import (
	"sort"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// Ring is a consistent-hash ring with virtual nodes. It is a plain data
// structure (no goroutines, no locking): each machine owns its own copy
// and reconciles it from membership information.
type Ring struct {
	vnodes  int
	points  []node.Point // sorted vnode positions
	owners  []node.ID    // owners[i] owns points[i]
	members map[node.ID]struct{}
}

// NewRing creates an empty ring with the given virtual nodes per member
// (minimum 1; typical 32-128 for smooth balance).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	return &Ring{vnodes: vnodes, members: make(map[node.ID]struct{})}
}

// vnodePoint derives the position of a member's i-th virtual node.
func vnodePoint(id node.ID, i int) node.Point {
	return node.HashID(id + node.ID(uint64(i)<<40))
}

// Add inserts a member (idempotent).
func (r *Ring) Add(id node.ID) {
	if _, ok := r.members[id]; ok {
		return
	}
	r.members[id] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		p := vnodePoint(id, i)
		idx := sort.Search(len(r.points), func(j int) bool { return r.points[j] >= p })
		r.points = append(r.points, 0)
		copy(r.points[idx+1:], r.points[idx:])
		r.points[idx] = p
		r.owners = append(r.owners, 0)
		copy(r.owners[idx+1:], r.owners[idx:])
		r.owners[idx] = id
	}
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(id node.ID) {
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	pts := r.points[:0]
	own := r.owners[:0]
	for i, o := range r.owners {
		if o != id {
			pts = append(pts, r.points[i])
			own = append(own, o)
		}
	}
	r.points = pts
	r.owners = own
}

// Has reports membership.
func (r *Ring) Has(id node.ID) bool {
	_, ok := r.members[id]
	return ok
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Lookup returns the member responsible for point p (its successor vnode
// owner), or node.None on an empty ring.
func (r *Ring) Lookup(p node.Point) node.ID {
	if len(r.points) == 0 {
		return node.None
	}
	return r.owners[node.SuccessorIndex(r.points, p)]
}

// LookupKey routes a tuple key.
func (r *Ring) LookupKey(key string) node.ID { return r.Lookup(node.HashKey(key)) }

// LookupFirst returns the first successor owner of p accepted by ok,
// walking the vnode ring in place. It answers the same question as
// "first acceptable entry of LookupN(p, Size())" without allocating the
// candidate slice or the dedup set — the client router calls this on
// every operation. Owners may be tested more than once (one per vnode);
// ok must therefore be cheap and side-effect free.
func (r *Ring) LookupFirst(p node.Point, ok func(node.ID) bool) node.ID {
	if len(r.points) == 0 {
		return node.None
	}
	idx := node.SuccessorIndex(r.points, p)
	for i := 0; i < len(r.points); i++ {
		if o := r.owners[(idx+i)%len(r.points)]; ok(o) {
			return o
		}
	}
	return node.None
}

// LookupN returns up to n distinct members responsible for p: the owner
// of the successor vnode and the owners of the following vnodes —
// Cassandra/Chord successor-list replication.
func (r *Ring) LookupN(p node.Point, n int) []node.ID {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	out := make([]node.ID, 0, n)
	seen := make(map[node.ID]struct{}, n)
	idx := node.SuccessorIndex(r.points, p)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		o := r.owners[(idx+i)%len(r.points)]
		if _, dup := seen[o]; !dup {
			seen[o] = struct{}{}
			out = append(out, o)
		}
	}
	return out
}

// Interval is one ring segment with its replica set: keys whose point
// falls in Arc are stored by Owners (primary first).
type Interval struct {
	Arc    node.Arc
	Owners []node.ID
}

// Intervals decomposes the ring into segments with their r-owner lists.
// The structured baseline's reactive repair walks this to find ranges a
// node gained or lost after membership changed.
func (r *Ring) Intervals(replicas int) []Interval {
	n := len(r.points)
	if n == 0 {
		return nil
	}
	out := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		// Segment ending at points[i] (exclusive start at previous point).
		prev := r.points[(i-1+n)%n]
		width := node.Distance(prev, r.points[i])
		if width == 0 && n > 1 {
			continue
		}
		if n == 1 {
			width = 1<<64 - 1
		}
		out = append(out, Interval{
			Arc:    node.Arc{Start: prev, Width: width},
			Owners: r.LookupN(r.points[i], replicas),
		})
	}
	return out
}

// Sequencer assigns request versions: monotonically increasing per key,
// tie-broken by the sequencing node's ID. It is the concurrency-control
// heart of the soft-state layer.
type Sequencer struct {
	self   node.ID
	latest map[string]tuple.Version
}

// NewSequencer creates a sequencer owned by self.
func NewSequencer(self node.ID) *Sequencer {
	return &Sequencer{self: self, latest: make(map[string]tuple.Version)}
}

// Next allocates the next version for key.
func (s *Sequencer) Next(key string) tuple.Version {
	v := s.latest[key].Next(s.self)
	s.latest[key] = v
	return v
}

// Latest returns the most recent version assigned or observed for key.
func (s *Sequencer) Latest(key string) (tuple.Version, bool) {
	v, ok := s.latest[key]
	return v, ok
}

// Observe records an externally learned version (recovery, handoff); it
// never moves the sequence backwards.
func (s *Sequencer) Observe(key string, v tuple.Version) {
	if cur, ok := s.latest[key]; !ok || cur.Less(v) {
		s.latest[key] = v
	}
}

// Keys returns all sequenced keys (diagnostics and recovery audits).
func (s *Sequencer) Keys() []string {
	out := make([]string, 0, len(s.latest))
	for k := range s.latest {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of sequenced keys.
func (s *Sequencer) Len() int { return len(s.latest) }

// Wipe clears all state, simulating the catastrophic soft-layer loss of
// experiment C14. The table capacity is kept: a rebuilt soft node is
// expected to re-observe a similar key population during recovery.
func (s *Sequencer) Wipe() { clear(s.latest) }

// Directory remembers, per key, some persistent-layer nodes known to
// store it, so reads skip discovery ("maintaining knowledge of some of
// the nodes that store the data"). The hint lists stay small ordered
// slices (maxPerKey is 4 by default), appended in place and replaced
// oldest-first when full.
type Directory struct {
	maxPerKey int
	hints     map[string][]node.ID
}

// NewDirectory creates a directory keeping at most maxPerKey hints per
// key (0 means 4).
func NewDirectory(maxPerKey int) *Directory {
	if maxPerKey <= 0 {
		maxPerKey = 4
	}
	return &Directory{maxPerKey: maxPerKey, hints: make(map[string][]node.ID)}
}

// AddHint records that id stores key.
func (d *Directory) AddHint(key string, id node.ID) {
	hs, ok := d.hints[key]
	for _, h := range hs {
		if h == id {
			return
		}
	}
	if len(hs) >= d.maxPerKey {
		// Replace the oldest hint (front) — newer hints are fresher. The
		// slice is mutated in place, so the stored header stays valid.
		copy(hs, hs[1:])
		hs[len(hs)-1] = id
		return
	}
	if !ok {
		// First hint: allocate the key's slice at full fan-in capacity so
		// later AddHints never reallocate.
		hs = make([]node.ID, 0, d.maxPerKey)
	}
	d.hints[key] = append(hs, id)
}

// Hints returns the known holders of key (most recent last).
func (d *Directory) Hints(key string) []node.ID {
	hs := d.hints[key]
	out := make([]node.ID, len(hs))
	copy(out, hs)
	return out
}

// Len returns the number of keys with hints.
func (d *Directory) Len() int { return len(d.hints) }

// Wipe clears the directory (C14 catastrophic loss), keeping table
// capacity for the recovery refill.
func (d *Directory) Wipe() { clear(d.hints) }
