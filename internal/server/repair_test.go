package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// storedVersion reads key's version from a node's persistent store on
// its driver goroutine.
func storedVersion(t *testing.T, srv *Server, key string) tuple.Version {
	t.Helper()
	var v tuple.Version
	err := srv.host.Do(func(sim.Machine, sim.Round) []sim.Envelope {
		v = srv.m.en.St.Version(key)
		return nil
	})
	if err != nil {
		t.Fatalf("node %s: %v", srv.cfg.Self, err)
	}
	return v
}

// TestLiveServerRunsBackgroundRepair pins that the shipped server runs
// the repair machinery the scenario suite validates: on a 3-node
// loopback cluster segmented range sync and supersession sweeps fire on
// every node (visible through STATS), and a replica that missed a
// version — planted on the other two stores behind gossip's back — is
// refreshed by background repair alone, with no client read to help.
func TestLiveServerRunsBackgroundRepair(t *testing.T) {
	servers := startCluster(t, 3, func(_ int, cfg *Config) {
		cfg.TickInterval = 10 * time.Millisecond
	})
	c := dial(t, servers[0])
	const burst = 64
	for i := 0; i < burst; i++ {
		if _, err := c.Put(fmt.Sprintf("repair:%03d", i), []byte("v1")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// A key all three nodes store (the sieve leaves each node without a
	// share of the key space, so look for one).
	deadline := time.Now().Add(8 * time.Second)
	var key string
	var cur tuple.Version
	for key == "" {
		for i := 0; i < burst && key == ""; i++ {
			k := fmt.Sprintf("repair:%03d", i)
			held := 0
			for _, srv := range servers {
				if v := storedVersion(t, srv, k); !v.IsZero() {
					cur = v
					held++
				}
			}
			if held == len(servers) {
				key = k
			}
		}
		if key == "" {
			if time.Now().After(deadline) {
				t.Fatal("no key reached all three stores")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Nodes 1 and 2 learn a newer version directly; node 3 misses it.
	newer := tuple.Version{Seq: cur.Seq + 1, Writer: node.ID(1)}
	for _, srv := range servers[:2] {
		err := srv.host.Do(func(sim.Machine, sim.Round) []sim.Envelope {
			srv.m.en.St.Apply(&tuple.Tuple{Key: key, Value: []byte("v2"), Version: newer})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	clients := []*ddclient.Client{c, dial(t, servers[1]), dial(t, servers[2])}
	for {
		refreshed := storedVersion(t, servers[2], key) == newer
		moved := 0
		for _, cl := range clients {
			raw, err := cl.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			var st Stats
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatalf("stats json: %v\n%s", err, raw)
			}
			if st.RepairSyncSegments > 0 && st.RepairSweeps > 0 {
				moved++
			}
		}
		if refreshed && moved == len(servers) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("at deadline: stale replica refreshed=%v, nodes with segment and sweep counters moving=%d of %d",
				refreshed, moved, len(servers))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
