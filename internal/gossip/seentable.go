package gossip

// seenTable is an open-addressed hash set of rumor IDs, specialised for
// the duplicate-suppression check that runs on every rumor receipt at
// every node — the single hottest lookup in the whole simulated fabric.
// Its IDs churn: every round adds the new rumors and retention expiry
// deletes as many old ones. Backward-shift deletion leaves no tombstones,
// so the table holds its size under that churn where a built-in map does
// not: holding 50 500 live IDs through 4 000 rounds of 500 adds and 500
// deletes, a map[uint64]struct{} grew from 1.7–1.9 to 5.9–6.0 MB of heap
// in use and took 0.21–0.26 s, while seenTable stayed at 1.5 MB and took
// 0.12–0.13 s (Go 1.24, 2-vCPU host). When an ID was first seen is the
// first-seen FIFO's business (Disseminator.seenOrder), not the table's.
//
// Rumor IDs are formed as origin<<32|seq with seq >= 1, so 0 never
// occurs as a real key and marks empty slots.
type seenTable struct {
	keys []uint64
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
		mask: seenTableMinSize - 1,
	}
}

// has reports whether id is in the set.
func (t *seenTable) has(id uint64) bool {
	i := hashRumorID(id) & t.mask
	for {
		k := t.keys[i]
		if k == id {
			return true
		}
		if k == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// add inserts id (a no-op when it is already present).
func (t *seenTable) add(id uint64) {
	if t.n >= len(t.keys)*3/4 {
		t.grow()
	}
	i := hashRumorID(id) & t.mask
	for {
		k := t.keys[i]
		if k == id {
			return
		}
		if k == 0 {
			t.keys[i] = id
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
			i = j
		}
	}
	t.keys[i] = 0
	t.n--
}

func (t *seenTable) len() int { return t.n }

func (t *seenTable) grow() {
	oldKeys := t.keys
	size := len(oldKeys) * 2
	t.keys = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.n = 0
	for _, k := range oldKeys {
		if k != 0 {
			t.add(k)
		}
	}
}

// fifo is a queue on one slice. pop leaves a dead prefix that is
// compacted away once it is half the slice: amortised O(1), and the
// slice stays within twice what the queue holds.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

// live returns the queued items, oldest first.
func (q *fifo[T]) live() []T { return q.items[q.head:] }

// pop drops the oldest item, zeroing its slot so nothing it points to
// stays reachable.
func (q *fifo[T]) pop() {
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
}
