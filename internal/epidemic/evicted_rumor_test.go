package epidemic

import (
	"fmt"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// TestEvictedRumorRecoveredByRepair is why dropping a rumor payload
// before its retention ends is safe. A node is down while more than the
// gossip payload budget is written; by the time it returns, every peer
// has evicted the oldest payloads, so no digest pull can supply them —
// the node never sees those rumors at all. Ordinary range repair, which
// reconciles store against store and needs no rumor, still brings every
// key the node is responsible for to its written version: a missed
// rumor is perturbed state that anti-entropy corrects without a second
// mechanism (arXiv:1808.00822).
func TestEvictedRumorRecoveredByRepair(t *testing.T) {
	const (
		n      = 8
		late   = node.ID(n) // down during the writes
		writes = 80
		oldest = 8 // evicted at every peer, whatever order rumors reached it
	)
	c := newCluster(n, 61, Config{Replication: 3, FanoutC: 3, AntiEntropyEvery: 5})
	c.net.Run(20)
	c.net.Kill(late, false)

	// 80 × 512 KiB is 40 MiB against an 8 MiB budget. The tuples share
	// one value — immutable, like everything sequenced — so the test
	// holds 512 KiB, not 40 MiB.
	value := make([]byte, 512<<10)
	origin := c.nodes[1]
	keys := make([]string, writes)
	for i := range keys {
		keys[i] = fmt.Sprintf("evict-%03d", i)
		tp := &tuple.Tuple{Key: keys[i], Value: value, Version: tuple.Version{Seq: 1, Writer: origin.Self}}
		c.net.Emit(origin.Self, origin.Write(c.net.Round(), tp))
		c.net.Run(1)
	}
	c.net.Run(10)
	for id, en := range c.nodes {
		if id != late && en.Diss.Evicted < 2*oldest {
			t.Fatalf("node %v evicted %d payloads; the budget was meant to bind", id, en.Diss.Evicted)
		}
	}

	c.net.Revive(late)
	en := c.nodes[late]
	missing := func() (out []string) {
		for _, k := range keys {
			if en.Repair.Covers(node.HashKey(k)) && en.St.Version(k).IsZero() {
				out = append(out, k)
			}
		}
		return out
	}
	rounds := 0
	for ; len(missing()) > 0; rounds++ {
		if rounds == 400 {
			t.Fatalf("400 rounds after revival the node still lacks %v", missing())
		}
		c.net.Run(1)
	}

	// The rumor ID is publisher<<32 | sequence, and node 1 published
	// nothing else.
	viaRepair := 0
	for i, k := range keys[:oldest] {
		if en.Diss.Seen(uint64(origin.Self)<<32 | uint64(i+1)) {
			t.Errorf("rumor %d reached the late node by gossip although every peer had evicted it", i+1)
		}
		if !en.St.Version(k).IsZero() {
			viaRepair++
		}
	}
	if viaRepair == 0 {
		t.Fatalf("the late node holds none of the %d oldest keys: nothing here was recovered by repair", oldest)
	}
	if en.Diss.Delivered == 0 {
		t.Fatal("the late node pulled nothing by gossip either; the digest exchange never ran")
	}
	t.Logf("converged %d rounds after revival: %d rumors by digest pull, %d of the %d oldest keys by range repair",
		rounds, en.Diss.Delivered, viaRepair, oldest)
}
