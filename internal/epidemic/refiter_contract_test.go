package epidemic

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/store"
	"datadroplets/internal/tuple"
)

// tupleChecksum folds one tuple's full content (including value bytes
// and attrs) into h, so any mutation — not just key/version drift — is
// detectable.
func tupleChecksum(h io.Writer, t *tuple.Tuple) {
	fmt.Fprintf(h, "%s|%d@%d|%v|%x|%v|%v;", t.Key, t.Version.Seq, t.Version.Writer, t.Deleted, t.Value, t.Attrs, t.Tags)
}

// deepChecksum is tupleChecksum over a whole store: a mutation through a
// borrowed reference changes it.
func deepChecksum(s *store.Store) uint64 {
	h := fnv.New64a()
	s.ForEachRef(func(t *tuple.Tuple) bool {
		tupleChecksum(h, t)
		return true
	})
	return h.Sum64()
}

// TestBorrowedWalkCallersPreserveStore drives every epidemic-layer
// consumer of the store's borrowed iteration directly — the histogram
// estimator's epoch-reseed local pass, ordered-scan collection, the
// recovery version dump, and the repair manager's orphan sweep — and
// asserts each store's deep content checksum is unchanged. The calls are
// made machine-locally (produced envelopes are discarded, so no remote
// effects can legitimately mutate the stores): any checksum drift is a
// ForEachRef/ScanRef contract violation by a caller. Run under -race
// this also proves the walks share no hidden mutable state.
func TestBorrowedWalkCallersPreserveStore(t *testing.T) {
	c := newCluster(24, 99, Config{
		Replication:    3,
		FanoutC:        2,
		AggregateAttrs: []string{"price"},
		Sieve:          SieveQuantile,
		QuantileAttr:   "price",
		OrderAttr:      true,
	})
	c.net.Run(10)
	for i := 0; i < 60; i++ {
		origin := c.nodes[c.ids[i%len(c.ids)]]
		tp := &tuple.Tuple{
			Key:     fmt.Sprintf("key-%03d", i),
			Value:   []byte(fmt.Sprintf("v%d", i)),
			Attrs:   map[string]float64{"price": float64(i)},
			Version: tuple.Version{Seq: 1, Writer: origin.Self},
		}
		c.net.Emit(origin.Self, origin.Write(c.net.Round(), tp))
	}
	c.net.Quiesce(60)

	// Flush repair harvests left over from the warmup rounds first: they
	// may legitimately Drop handed-off orphan copies, which is repair
	// semantics, not a borrowed-iteration violation. The post-snapshot
	// sweep below launches fresh walks whose results never arrive, so it
	// cannot mutate.
	for _, id := range c.ids {
		if r := c.nodes[id].Repair; r != nil {
			r.Tick(sim.Round(100))
		}
	}

	sums := make(map[uint64]uint64, len(c.ids))
	for _, id := range c.ids {
		sums[uint64(id)] = deepChecksum(c.nodes[id].St)
	}

	now := c.net.Round()
	scanned := 0
	for _, id := range c.ids {
		n := c.nodes[id]
		// Histogram estimator epoch reseed: the KMV local pass walks the
		// store with ForEachRef.
		if n.Dist == nil {
			t.Fatalf("node %v: fixture must enable distribution estimation", id)
		}
		n.Dist.Start(now)
		// Ordered-scan collection, answered to a foreign origin.
		foreign := node.ID(len(c.ids) + 1)
		for _, e := range n.Handle(now, foreign, ScanReq{Attr: "price", Lo: 0, Hi: 1000, ReqID: 1, Origin: foreign}) {
			if resp, ok := e.Msg.(ScanResp); ok && e.To == foreign {
				scanned += len(resp.Tuples)
			}
		}
		// Recovery dump walks every entry's key+version.
		n.Handle(now, c.ids[0], RecoverReq{ReqID: 7, Limit: 0})
		// Repair orphan sweep (ScanRef) — a round on the check cadence so
		// the sweep runs; the harvest half sees only the result-less
		// walks launched by the flush above, which cannot mutate.
		if n.Repair != nil {
			n.Repair.Tick(sim.Round(120))
		}
	}
	if scanned == 0 {
		t.Fatal("scans matched nothing; fixture is not exercising the scan walk")
	}

	for _, id := range c.ids {
		if got := deepChecksum(c.nodes[id].St); got != sums[uint64(id)] {
			t.Errorf("node %v: store content changed across borrowed walks: %016x -> %016x", id, sums[uint64(id)], got)
		}
	}
}
