// Package cache is the soft-state layer's tuple cache (§II): "we take
// advantage of spare capacity to serve as a tuple cache thus avoiding
// unnecessary operations at the persistent-state layer. As the soft-layer
// always knows the most recent version of an item, cache inconsistency
// issues are eliminated."
//
// That design translates into a version-exact LRU: a lookup provides the
// latest version (from the sequencer) and only an entry carrying exactly
// that version is a hit. Stale entries are never served — they are evicted
// on sight — so there is no invalidation protocol and no read quorum. The
// premise is the sequencer's: in the live server it is fed every version
// the node receives, stored or not (docs/DESIGN.md §4), and the cache
// holds only tuples read over the fabric and the node's own writes — a
// collocated replica's tuples are read from the replica.
package cache

import (
	"container/list"

	"datadroplets/internal/tuple"
)

// Cache is a version-exact LRU tuple cache. Not safe for concurrent use;
// it is confined to its owning soft-state node like every other state
// machine here.
type Cache struct {
	capacity int
	ll       *list.List // of *tuple.Tuple, front = most recent
	items    map[string]*list.Element

	hits   int64
	misses int64
	stale  int64
}

// New creates a cache holding up to capacity tuples (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Put inserts or refreshes the cached tuple. It retains t rather than
// copying it: tuples are immutable once sequenced (docs/DESIGN.md §1).
// Older cached versions are overwritten only by newer ones, so a racing
// stale fill cannot clobber a fresh entry.
func (c *Cache) Put(t *tuple.Tuple) {
	if t == nil {
		return
	}
	if el, ok := c.items[t.Key]; ok {
		if t.Version.Less(el.Value.(*tuple.Tuple).Version) {
			return // never downgrade
		}
		el.Value = t
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*tuple.Tuple).Key)
		}
	}
	c.items[t.Key] = c.ll.PushFront(t)
}

// Get returns the cached tuple only if its version is exactly latest —
// the version the sequencer knows to be current. Anything else is a miss;
// stale entries are evicted immediately. The tuple returned is the one
// held, not a copy: sequenced tuples are immutable, and the copy a
// client may write to is made where the read leaves the system.
func (c *Cache) Get(key string, latest tuple.Version) (*tuple.Tuple, bool) {
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	t := el.Value.(*tuple.Tuple)
	if t.Version != latest {
		c.stale++
		c.misses++
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return t, true
}

// Len returns the number of cached tuples.
func (c *Cache) Len() int { return c.ll.Len() }

// Stats returns cumulative hits, misses, and stale evictions.
func (c *Cache) Stats() (hits, misses, stale int64) {
	return c.hits, c.misses, c.stale
}

// Wipe clears contents (statistics survive; C14 wipes soft state, not
// counters).
func (c *Cache) Wipe() {
	c.ll = list.New()
	c.items = make(map[string]*list.Element, c.capacity)
}
