package gossip

import (
	"math/rand"
	"testing"
)

// TestSeenTableAgainstMap drives the open-addressed table and a plain
// map through the same randomized insert/delete/lookup sequence —
// including the adversarial ID shape origin<<32|seq that collides whole
// origins under a masked multiplicative hash — and requires exact
// agreement at every step.
func TestSeenTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := newSeenTable()
	ref := make(map[uint64]seenMeta)
	ids := make([]uint64, 0, 4096)
	for step := 0; step < 200000; step++ {
		switch {
		case len(ids) == 0 || rng.Intn(3) != 0:
			origin := uint64(rng.Intn(64) + 1)
			seq := uint64(rng.Intn(2000) + 1)
			id := origin<<32 | seq
			m := seenMeta{at: 1, hops: int32(rng.Intn(100))}
			tab.put(id, m)
			ref[id] = m
			ids = append(ids, id)
		default:
			i := rng.Intn(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			tab.del(id)
			delete(ref, id)
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len %d != %d", step, tab.len(), len(ref))
		}
		// Spot-check a few present and absent keys every step.
		for probe := 0; probe < 3; probe++ {
			var id uint64
			if len(ids) > 0 && probe < 2 {
				id = ids[rng.Intn(len(ids))]
			} else {
				id = uint64(rng.Intn(64)+1)<<32 | uint64(rng.Intn(2000)+1)
			}
			gm, gok := tab.get(id)
			wm, wok := ref[id]
			if gok != wok || gm != wm {
				t.Fatalf("step %d: get(%x) = %v,%v want %v,%v", step, id, gm, gok, wm, wok)
			}
		}
	}
	// Full sweep at the end: every key of ref is found with its value, and
	// with the lengths equal the table holds nothing else.
	for id, wm := range ref {
		if gm, ok := tab.get(id); !ok || gm != wm {
			t.Fatalf("final get(%x) = %v,%v want %v,true", id, gm, ok, wm)
		}
	}
	if tab.len() != len(ref) {
		t.Fatalf("final len %d != %d", tab.len(), len(ref))
	}
}
