package gossip

import (
	"math/rand"
	"testing"

	"datadroplets/internal/sim"
)

// TestSeenTableAgainstMap drives the open-addressed set and a plain map
// through the same randomized add/delete/lookup sequence — including the
// adversarial ID shape origin<<32|seq that collides whole origins under
// a masked multiplicative hash, and adds of IDs already present — and
// requires exact agreement at every step.
func TestSeenTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := newSeenTable()
	ref := make(map[uint64]bool)
	randomID := func() uint64 { return uint64(rng.Intn(64)+1)<<32 | uint64(rng.Intn(2000)+1) }
	ids := make([]uint64, 0, 4096)
	for step := 0; step < 200000; step++ {
		switch {
		case len(ids) == 0 || rng.Intn(3) != 0:
			id := randomID()
			tab.add(id)
			if !ref[id] {
				ref[id] = true
				ids = append(ids, id)
			}
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
			id := randomID()
			if len(ids) > 0 && probe < 2 {
				id = ids[rng.Intn(len(ids))]
			}
			if tab.has(id) != ref[id] {
				t.Fatalf("step %d: has(%x) = %v want %v", step, id, tab.has(id), ref[id])
			}
		}
	}
	// Full sweep at the end: every key of ref is found, and with the
	// lengths equal the set holds nothing else.
	for id := range ref {
		if !tab.has(id) {
			t.Fatalf("final has(%x) = false", id)
		}
	}
}

// TestSeenExpiryMatchesFullSweep holds the first-seen FIFO to the
// simplest correct retention: a map from rumor ID to the round it was
// first seen, swept whole on every tick for entries at or before
// now − Retention − 1. The node receives rumors — fresh ones, duplicates
// and IDs whose marker already expired — and sleeps through stretches of
// rounds with no tick at all; after a downtime the first receipts come
// before the first tick, the case where a rumor received now must
// outlive the backlog being pruned.
func TestSeenExpiryMatchesFullSweep(t *testing.T) {
	const retention = 7
	rng := rand.New(rand.NewSource(9))
	d := lone(Config{Fanout: FixedFanout(0), Retention: retention})
	ref := make(map[uint64]sim.Round)
	var ids []uint64
	for now := sim.Round(0); now < 3000; now++ {
		if rng.Intn(10) == 0 {
			now += sim.Round(rng.Intn(3 * retention)) // down: no receipts, no ticks
		}
		receive := func() {
			for k := rng.Intn(4); k > 0; k-- {
				var id uint64
				if len(ids) == 0 || rng.Intn(3) == 0 {
					id = uint64(rng.Intn(8)+1)<<32 | uint64(len(ids)+1)
					ids = append(ids, id)
				} else {
					id = ids[rng.Intn(len(ids))]
				}
				d.Handle(now, 2, RumorMsg{Rumor: Rumor{ID: id}})
				if _, ok := ref[id]; !ok {
					ref[id] = now
				}
			}
		}
		tick := func() {
			d.Tick(now)
			for id, at := range ref {
				if at <= now-retention-1 {
					delete(ref, id)
				}
			}
		}
		if rng.Intn(2) == 0 {
			tick()
			receive()
		} else {
			receive()
			tick()
		}
		if d.SeenLen() != len(ref) {
			t.Fatalf("round %d: %d seen, reference %d", now, d.SeenLen(), len(ref))
		}
		for _, id := range ids {
			_, want := ref[id]
			if d.Seen(id) != want {
				t.Fatalf("round %d: Seen(%x) = %v, reference %v", now, id, d.Seen(id), want)
			}
		}
	}
}
