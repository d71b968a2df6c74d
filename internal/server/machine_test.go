package server

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/wire"
)

// TestMachineOnSimulator runs the live server's node — three machines
// built as New builds them, entrySampler and LocalRead included — on the
// simulator's fabric instead of TCP. Client ops are submitted in the
// serial phase between rounds and settle through the machine's own
// finish callback (Server.opDone) inside the compute phase. What the
// clients see, the fabric's message counts and every store's digest
// must be identical whether the compute phase runs on one worker or
// four.
func TestMachineOnSimulator(t *testing.T) {
	want := runMachinesOnSim(t, 1)
	if got := runMachinesOnSim(t, 4); got != want {
		t.Fatalf("W=4 diverges from W=1:\n got: %s\nwant: %s", got, want)
	}
}

// runMachinesOnSim drives PUT at node 1, GET of it at node 2, DEL at
// node 3, then GET at node 1, checks each outcome, and returns a trace
// of outcomes, fabric counters and store digests.
func runMachinesOnSim(t *testing.T, workers int) string {
	t.Helper()
	c := newSimCluster(t, workers, 11, 3, 0)
	if sl := c.do(1, wire.OpPut, "k", "v1"); sl.status != wire.StatusOK {
		t.Fatalf("W=%d: put: %v", workers, sl.status)
	}
	if sl := c.do(2, wire.OpGet, "k", ""); sl.status != wire.StatusValue || string(sl.payload) != "v1" {
		t.Fatalf("W=%d: get at node 2: %v %q", workers, sl.status, sl.payload)
	}
	if sl := c.do(3, wire.OpDel, "k", ""); sl.status != wire.StatusOK {
		t.Fatalf("W=%d: del: %v", workers, sl.status)
	}
	c.net.Run(10) // the tombstone reaches every replica
	if sl := c.do(1, wire.OpGet, "k", ""); sl.status != wire.StatusNotFound {
		t.Fatalf("W=%d: get after del: %v %q", workers, sl.status, sl.payload)
	}
	if n := c.srv.inflight.Load(); n != 0 || len(c.machines[1].pending) != 0 {
		t.Fatalf("W=%d: %d ops in flight, %d pending at node 1", workers, n, len(c.machines[1].pending))
	}
	return c.finalTrace()
}

// simCluster is nodes 1..n of the live server, each a machine built as
// New builds it, on the simulator's fabric instead of TCP.
type simCluster struct {
	t        *testing.T
	workers  int
	net      *sim.Network
	srv      Server // opDone's counters only: no sockets, no host
	machines map[node.ID]*machine
	ids      []node.ID
	trace    []string
}

// newSimCluster spawns n machines (replication r; 0 keeps the server's
// default) on a fabric seeded with seed and run by workers, and runs
// them until size estimates settle, before the first write.
func newSimCluster(t *testing.T, workers int, seed int64, n, r int) *simCluster {
	t.Helper()
	c := &simCluster{t: t, workers: workers, machines: make(map[node.ID]*machine, n)}
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, node.ID(i))
	}
	c.net = sim.New(sim.Config{Seed: seed, Workers: workers})
	t.Cleanup(c.net.Close)
	for range c.ids {
		c.net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			cfg := Config{Self: id, Replication: r, TickInterval: time.Second, OpTimeout: 50 * time.Second}.normalized()
			c.machines[id] = newMachine(cfg, rng, c.ids, c.srv.opDone)
			return c.machines[id]
		})
	}
	c.net.Run(20)
	return c
}

// do submits a client op at node at in the serial phase between rounds
// and steps the fabric until the op settles, recording the outcome in
// the trace.
func (c *simCluster) do(at node.ID, kind wire.Op, key, value string) *slot {
	c.t.Helper()
	sl := &slot{kind: kind, start: time.Now(), key: key, value: []byte(value)}
	c.srv.inflight.Add(1)
	c.net.Emit(at, c.machines[at].submit(c.net.Round(), sl))
	for rounds := 0; ; rounds++ {
		if sl.ready.Load() {
			c.trace = append(c.trace, fmt.Sprintf("%v@%v %v %x in %d rounds", kind, at, sl.status, sl.payload, rounds))
			return sl
		}
		if rounds == 60 {
			c.t.Fatalf("W=%d: %v at node %v did not settle", c.workers, kind, at)
		}
		c.net.Step()
	}
}

// finalTrace returns the op outcomes, the fabric's message counts and
// every store's digest.
func (c *simCluster) finalTrace() string {
	trace := append(c.trace, fmt.Sprintf("sent=%d delivered=%d", c.net.Stats.Sent.Value(), c.net.Stats.Delivered.Value()))
	for _, id := range c.ids {
		trace = append(trace, fmt.Sprintf("digest@%v=%016x", id, c.machines[id].en.St.DigestArc(node.FullArc())))
	}
	return strings.Join(trace, "; ")
}
