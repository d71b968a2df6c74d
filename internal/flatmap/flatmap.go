// Package flatmap provides an open-addressed, string-keyed hash map
// specialised for the soft layer's per-key indexes (sequencer versions,
// directory hints, store supersession floors). It follows the pattern the
// gossip seenTable established for rumor IDs: keys and values live in two
// flat parallel arrays probed linearly, deletion compacts the probe chain
// by backward shifting (no tombstone buildup), and growth rehashes into a
// doubled power-of-two table.
//
// Compared with a built-in map at million-key scale this trades Go's
// bucket-and-overflow layout for dense arrays: one hash per operation
// (FNV-1a over the key bytes, no per-op seed mixing), predictable linear
// probes, and a value array the garbage collector only scans when V
// itself contains pointers. The string keys keep their headers in the
// table, so key storage is shared with the callers' interned keys rather
// than duplicated.
//
// A Map is confined to its owning node machine, exactly like the
// structures it replaces: no locking, not safe for concurrent use.
package flatmap

// minSize is the smallest table allocation (power of two). Small enough
// that per-node instances on 10^5-node simulations stay cheap, large
// enough that steady workloads skip the first few doublings.
const minSize = 16

// Map is an open-addressed hash map from string to V. The zero Map is an
// empty map that owns no table: it allocates on its first Put, so a
// structure embedding several Maps by value (one per-node store each, at
// 10^5 nodes) pays nothing for the ones it never fills.
type Map[V any] struct {
	keys []string
	vals []V
	used []bool // slot occupancy; "" is a legal key, so keys can't encode it
	n    int
	mask uint64
}

// hashString is FNV-1a over the key bytes with a murmur3-style finalizer.
// FNV alone clusters short sequential keys ("key-000001", ...) in the low
// bits; the avalanche pass spreads them across the table.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// New creates an empty map sized for at least hint entries without
// growing (hint <= 0 gives the minimum size).
func New[V any](hint int) *Map[V] {
	size := minSize
	for size*3/4 < hint {
		size *= 2
	}
	return &Map[V]{
		keys: make([]string, size),
		vals: make([]V, size),
		used: make([]bool, size),
		mask: uint64(size - 1),
	}
}

// Get returns the value stored under key. An empty map answers without
// hashing the key (and without a table to probe).
func (m *Map[V]) Get(key string) (V, bool) {
	var zero V
	if m.n == 0 {
		return zero, false
	}
	i := hashString(key) & m.mask
	for {
		if !m.used[i] {
			return zero, false
		}
		if m.keys[i] == key {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
}

// Put inserts or overwrites key.
func (m *Map[V]) Put(key string, v V) {
	if m.n >= len(m.keys)*3/4 {
		m.grow()
	}
	i := hashString(key) & m.mask
	for {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = key
			m.vals[i] = v
			m.n++
			return
		}
		if m.keys[i] == key {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
}

// Slot returns a pointer to key's value slot, inserting key at the zero
// value first when it is absent, and reports whether it was present: a
// read-modify-write in one probe. The pointer is valid until the next
// insert (Put, Slot of an absent key), which may grow the table.
func (m *Map[V]) Slot(key string) (v *V, found bool) {
	if m.n >= len(m.keys)*3/4 {
		m.grow()
	}
	i := hashString(key) & m.mask
	for {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = key
			m.n++
			return &m.vals[i], false
		}
		if m.keys[i] == key {
			return &m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
}

// Del removes key and reports whether it was present, compacting the
// probe chain by shifting displaced entries backward so lookups never
// cross tombstones.
func (m *Map[V]) Del(key string) bool {
	if m.n == 0 {
		return false
	}
	i := hashString(key) & m.mask
	for {
		if !m.used[i] {
			return false
		}
		if m.keys[i] == key {
			break
		}
		i = (i + 1) & m.mask
	}
	j := i
	for {
		j = (j + 1) & m.mask
		if !m.used[j] {
			break
		}
		// keys[j] may move into the hole at i only if its home slot lies
		// at or before i along the probe chain ending at j.
		home := hashString(m.keys[j]) & m.mask
		if (j-home)&m.mask >= (j-i)&m.mask {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.used[i] = false
	m.keys[i] = "" // release the string so the key bytes are collectable
	m.vals[i] = zero
	m.n--
	return true
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Each visits every entry in table order (not key order — callers needing
// determinism must sort what they collect, as the structures this
// replaces already did for their map ranges).
func (m *Map[V]) Each(fn func(key string, v V)) {
	for i, ok := range m.used {
		if ok {
			fn(m.keys[i], m.vals[i])
		}
	}
}

// Reset drops every entry but keeps the current table capacity — the
// Wipe path of the soft-state structures (catastrophic loss, C14), which
// are expected to refill to a similar size.
func (m *Map[V]) Reset() {
	var zero V
	for i := range m.used {
		if m.used[i] {
			m.used[i] = false
			m.keys[i] = ""
			m.vals[i] = zero
		}
	}
	m.n = 0
}

func (m *Map[V]) grow() {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	size := max(len(oldKeys)*2, minSize)
	m.keys = make([]string, size)
	m.vals = make([]V, size)
	m.used = make([]bool, size)
	m.mask = uint64(size - 1)
	m.n = 0
	for i, ok := range oldUsed {
		if ok {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}
