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
// finish callback (Server.finishOp) inside the compute phase. What the
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
	ids := []node.ID{1, 2, 3}
	net := sim.New(sim.Config{Seed: 11, Workers: workers})
	defer net.Close()
	var srv Server // finishOp's counters only: no sockets, no host
	machines := make(map[node.ID]*machine, len(ids))
	for range ids {
		net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			cfg := Config{Self: id, TickInterval: time.Second, OpTimeout: 50 * time.Second}.normalized()
			machines[id] = newMachine(cfg, rng, ids, srv.finishOp)
			return machines[id]
		})
	}
	net.Run(20) // size estimates settle before the first write

	var trace []string
	do := func(at node.ID, kind wire.Op, key, value string) *slot {
		sl := &slot{kind: kind, start: time.Now(), done: make(chan struct{})}
		srv.inflight.Add(1)
		net.Emit(at, machines[at].submit(net.Round(), sl, key, []byte(value)))
		for rounds := 0; ; rounds++ {
			select {
			case <-sl.done:
				trace = append(trace, fmt.Sprintf("%v@%v %v %x in %d rounds", kind, at, sl.status, sl.payload, rounds))
				return sl
			default:
			}
			if rounds == 60 {
				t.Fatalf("W=%d: %v at node %v did not settle", workers, kind, at)
			}
			net.Step()
		}
	}
	if sl := do(1, wire.OpPut, "k", "v1"); sl.status != wire.StatusOK {
		t.Fatalf("W=%d: put: %v", workers, sl.status)
	}
	if sl := do(2, wire.OpGet, "k", ""); sl.status != wire.StatusValue || string(sl.payload) != "v1" {
		t.Fatalf("W=%d: get at node 2: %v %q", workers, sl.status, sl.payload)
	}
	if sl := do(3, wire.OpDel, "k", ""); sl.status != wire.StatusOK {
		t.Fatalf("W=%d: del: %v", workers, sl.status)
	}
	net.Run(10) // the tombstone reaches every replica
	if sl := do(1, wire.OpGet, "k", ""); sl.status != wire.StatusNotFound {
		t.Fatalf("W=%d: get after del: %v %q", workers, sl.status, sl.payload)
	}
	if n := srv.inflight.Load(); n != 0 || len(machines[1].pending) != 0 {
		t.Fatalf("W=%d: %d ops in flight, %d pending at node 1", workers, n, len(machines[1].pending))
	}
	trace = append(trace, fmt.Sprintf("sent=%d delivered=%d", net.Stats.Sent.Value(), net.Stats.Delivered.Value()))
	for _, id := range ids {
		trace = append(trace, fmt.Sprintf("digest@%v=%016x", id, machines[id].en.St.DigestArc(node.FullArc())))
	}
	return strings.Join(trace, "; ")
}
