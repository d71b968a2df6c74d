package gossip

// seenTable is an open-addressed hash table from rumor ID to seenMeta,
// specialised for the duplicate-suppression check that runs on every
// rumor receipt at every node — the single hottest lookup in the whole
// simulated fabric. Compared to a built-in map it avoids per-operation
// hashing overhead (one multiply), keeps keys and values in two flat
// pointer-free arrays the garbage collector never scans, and supports
// deletion without tombstone buildup via backward-shift compaction.
//
// Rumor IDs are formed as origin<<32|seq with seq >= 1, so 0 never
// occurs as a real key and marks empty slots.
type seenTable struct {
	keys []uint64
	vals []seenMeta
	n    int
	mask uint64
}

const seenTableMinSize = 64 // power of two

// hashRumorID spreads IDs across slots. IDs are origin<<32|seq: a plain
// multiplicative hash masked to the table's low bits would erase the
// origin half entirely (origin·2³²·c ≡ 0 mod 2^k), colliding every
// origin's rumors, so full avalanche mixing (murmur3 finalizer) is
// required before masking.
func hashRumorID(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	id *= 0xc4ceb9fe1a85ec53
	id ^= id >> 33
	return id
}

func newSeenTable() *seenTable {
	return &seenTable{
		keys: make([]uint64, seenTableMinSize),
		vals: make([]seenMeta, seenTableMinSize),
		mask: seenTableMinSize - 1,
	}
}

// get returns the metadata for id.
func (t *seenTable) get(id uint64) (seenMeta, bool) {
	i := hashRumorID(id) & t.mask
	for {
		k := t.keys[i]
		if k == id {
			return t.vals[i], true
		}
		if k == 0 {
			return seenMeta{}, false
		}
		i = (i + 1) & t.mask
	}
}

// put inserts or overwrites id.
func (t *seenTable) put(id uint64, m seenMeta) {
	if t.n >= len(t.keys)*3/4 {
		t.grow()
	}
	i := hashRumorID(id) & t.mask
	for {
		k := t.keys[i]
		if k == id {
			t.vals[i] = m
			return
		}
		if k == 0 {
			t.keys[i] = id
			t.vals[i] = m
			t.n++
			return
		}
		i = (i + 1) & t.mask
	}
}

// del removes id, compacting the probe chain by shifting displaced
// entries backward so lookups never need tombstones.
func (t *seenTable) del(id uint64) {
	i := hashRumorID(id) & t.mask
	for {
		k := t.keys[i]
		if k == 0 {
			return // absent
		}
		if k == id {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		// k may move into the hole at i only if its home slot lies at or
		// before i along the probe chain ending at j.
		home := hashRumorID(k) & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.keys[i] = k
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.n--
}

func (t *seenTable) len() int { return t.n }

func (t *seenTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	size := len(oldKeys) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]seenMeta, size)
	t.mask = uint64(size - 1)
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.put(k, oldVals[i])
		}
	}
}
