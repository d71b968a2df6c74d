// Package sim is a deterministic, cycle-driven network simulator in the
// style of PeerSim's cycle engine. It exists because the paper's claims
// (atomic-infection probability, dissemination effort, redundancy decay
// under churn) are stated in terms of gossip rounds over populations of
// 10^4–10^5 nodes — a scale that is exercised here in-process by driving
// the same protocol state machines the live transport drives over TCP.
//
// # Determinism contract
//
// Given the same Config.Seed and the same sequence of API calls, a
// simulation produces byte-identical behaviour at every Config.Workers
// setting. All randomness flows from seeded rand.Rand instances (one for
// the network fabric, one per node).
//
// Each Step is a two-phase round:
//
//  1. Compute phase. Every due delivery is handled by its target machine
//     (a node's deliveries in their enqueue order), then every alive
//     machine ticks. With Workers > 1 the nodes are sharded across a
//     reusable worker pool — each node is owned by exactly one worker,
//     which runs all of the node's Handle calls (in enqueue order) before
//     its Tick — and the produced envelopes are buffered per delivery and
//     per node instead of entering the fabric immediately. The shards are
//     cost-balanced contiguous node ranges recomputed every round from
//     the round's own delivery counts (see balanceShards), so a hot node
//     cannot serialise a whole worker behind it; placement affects only
//     which goroutine computes, never the committed trace.
//  2. Commit phase (always serial, always in canonical order). Buffered
//     envelopes are merged into the fabric in exactly the serial
//     executor's order — delivery-triggered emissions in the enqueue
//     order of the triggering delivery, then tick emissions in node ID
//     order — and the shared loss/delay RNG draws happen in that order.
//     The message trace is therefore byte-identical for every worker
//     count, which the golden digest tests enforce.
//
// The contract holds because machines are confined to their own node
// (see Machine) and per-node RNG streams depend only on the order of
// that node's own Handle/Tick calls, which sharding preserves.
//
// # Fault scenarios
//
// Beyond the uniform Loss/delay model, a Scenario overlays the fabric
// with a deterministic fault schedule: named partitions that drop
// cross-group traffic and later heal, per-link and per-node loss/delay
// overrides (asymmetric links, slow nodes), global latency spikes, node
// flapping, and correlated mass-crash / mass-join events. Per-message
// effects run through the FaultInjector hook inside emit — always in the
// serial commit phase, in canonical order — and node-state events run in
// Scenario.Step between rounds, so every scenario composes with churn
// and preserves the byte-identical trace at every worker count.
package sim

import (
	"fmt"
	"math/rand"

	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
)

// Round is a simulation cycle. One round corresponds to one gossip period:
// each alive node ticks once and messages sent in round r with delay d are
// delivered in round r+d.
type Round int

// Envelope is an outbound message produced by a protocol machine. The
// sender is implicit (the machine that returned it).
type Envelope struct {
	To  node.ID
	Msg any
}

// FaultInjector overlays the fabric with scheduled faults. FilterMsg is
// consulted once per emitted message — always in the serial commit phase,
// in the canonical emission order — and may drop the message (a partition
// or a lossy link) or add delivery delay (a slow node, a latency spike).
// Because the calls happen in the same order at every Config.Workers
// setting, an injector may consume its own seeded randomness without
// breaking the byte-identical-trace guarantee. Scenario is the standard
// implementation.
type FaultInjector interface {
	FilterMsg(now Round, from, to node.ID) (drop bool, extraDelay int)
}

// Machine is the protocol state machine contract shared by the simulator
// and the live drivers. Implementations must not start goroutines and
// must take all randomness from the rand.Rand they were constructed with.
//
// Returned slices are consumed by the fabric before the round's commit
// finishes: a machine must not read or mutate a slice after returning it
// within the same round, but may recycle buffers it returned in earlier
// rounds — EnvPool packages that pattern, and the hot protocol paths
// (walk hops, gossip relays, repair pushes) use it to keep steady-state
// rounds allocation-free.
//
// Confinement: during Tick and Handle a machine must not read or write
// another node's mutable state — with Workers > 1 machines run
// concurrently, and the determinism argument additionally needs every
// node's behaviour to depend only on its own state plus the messages it
// received. Allowed shared inputs are immutable data (message payloads —
// which receivers must never mutate, see the payload-sharing notes in
// gossip, sizeest and histogram — and population snapshots such as a
// membership provider's ID list, which only changes between rounds) and
// atomic metrics counters. Hooks a machine exposes (e.g. delivery or
// hint callbacks) inherit the same restriction; cross-node observers
// belong outside Step, after the round committed, as core's client
// engine does with its deferred op-completion queue.
type Machine interface {
	// Start runs when the node boots: at spawn and again after each
	// transient-failure recovery (the paper's "reboot" churn model).
	Start(now Round) []Envelope
	// Tick runs once per round while the node is alive.
	Tick(now Round) []Envelope
	// Handle processes one delivered message.
	Handle(now Round, from node.ID, msg any) []Envelope
}

// Config controls the simulated network fabric.
type Config struct {
	// Seed feeds all randomness. Two runs with equal seeds are identical.
	Seed int64
	// Loss is the probability that any single message is dropped in
	// transit, modelling the transient link failures epidemic protocols
	// are claimed to mask.
	Loss float64
	// MinDelay and MaxDelay bound per-message delivery delay in rounds.
	// Zero values default to 1 (deliver next round).
	MinDelay, MaxDelay int
	// Workers is the number of compute-phase workers Step shards alive
	// nodes across. 0 or 1 selects the serial executor; higher values run
	// Handle/Tick concurrently with a byte-identical message trace (see
	// the package determinism contract). Networks with Workers > 1 hold a
	// goroutine pool; call Close when done with the network.
	Workers int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MinDelay <= 0 {
		out.MinDelay = 1
	}
	if out.MaxDelay < out.MinDelay {
		out.MaxDelay = out.MinDelay
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	return out
}

// Stats aggregates fabric-level message accounting for an entire run.
type Stats struct {
	Sent      metrics.Counter // messages handed to the fabric
	Delivered metrics.Counter // messages delivered to alive nodes
	LostLink  metrics.Counter // dropped by the loss process
	LostDead  metrics.Counter // dropped because the target was down
	LostFault metrics.Counter // dropped by the installed FaultInjector
}

type delivery struct {
	from node.ID
	to   node.ID
	msg  any
}

type nodeState struct {
	id        node.ID
	machine   Machine
	rng       *rand.Rand
	alive     bool
	permanent bool // permanently failed: can never be revived
}

// Network is the simulated fabric plus the node population.
type Network struct {
	cfg      Config
	rng      *rand.Rand
	round    Round
	fixDelay bool // MinDelay == MaxDelay: no per-message delay draw

	nodes []*nodeState // index id-1; IDs are dense from 1

	// queue is a ring of per-round delivery slices: messages due in round
	// r live in queue[r % len(queue)]. The ring has MaxDelay+1 slots, so
	// a message emitted in round r (delay 1..MaxDelay) can never land in
	// the slot being drained for r. Drained slices are recycled through
	// free, making the steady-state scheduler allocation-free.
	queue    [][]delivery
	free     [][]delivery
	inFlight int

	aliveCache []node.ID // sorted alive IDs; nil when invalidated
	aliveCount int

	// Parallel compute-phase state (see parallel.go). The pool is built
	// lazily on the first parallel Step and reused for every later round;
	// the out-buffers are recycled across rounds (entries are nilled as
	// the commit phase consumes them, capacity is kept).
	pool       *workerPool
	poolClosed bool // Close ran: a parallel Step must not revive the pool

	// fault, when installed, filters every emission (see FaultInjector).
	fault FaultInjector

	curDue    []delivery   // the round's due slice, visible to workers
	shardDue  [][]int32    // per-worker due indices, recycled each round
	handleOut [][]Envelope // per-delivery Handle output, index = due index
	tickOut   [][]Envelope // per-node Tick output, index = id-1

	// Cost-balanced shard state (see balanceShards): shardBounds[w] ..
	// shardBounds[w+1] is worker w's contiguous node-index range for the
	// current round; costArr is the per-node cost scratch, zeroed behind
	// the partition scan each round.
	shardBounds []int32
	costArr     []int32

	// Stats is the fabric accounting for this run.
	Stats Stats
}

// New creates an empty network.
func New(cfg Config) *Network {
	c := cfg.withDefaults()
	return &Network{
		cfg:      c,
		rng:      rand.New(rand.NewSource(c.Seed)),
		fixDelay: c.MinDelay == c.MaxDelay,
		queue:    make([][]delivery, c.MaxDelay+1),
	}
}

// Round returns the current round number.
func (n *Network) Round() Round { return n.round }

// Spawn adds a node, constructs its machine via build, boots it, and
// returns its ID. IDs are dense starting at 1.
func (n *Network) Spawn(build func(id node.ID, rng *rand.Rand) Machine) node.ID {
	id := node.ID(len(n.nodes) + 1)
	rng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(uint64(id)*0x9e3779b97f4a7c15)))
	st := &nodeState{id: id, rng: rng, alive: true}
	st.machine = build(id, rng)
	n.nodes = append(n.nodes, st)
	n.aliveCache = nil
	n.aliveCount++
	n.emit(id, st.machine.Start(n.round))
	return id
}

// SpawnN spawns count identical nodes and returns their IDs.
func (n *Network) SpawnN(count int, build func(id node.ID, rng *rand.Rand) Machine) []node.ID {
	ids := make([]node.ID, 0, count)
	for i := 0; i < count; i++ {
		ids = append(ids, n.Spawn(build))
	}
	return ids
}

func (n *Network) state(id node.ID) *nodeState {
	if id == node.None || int(id) > len(n.nodes) {
		return nil
	}
	return n.nodes[id-1]
}

// Alive reports whether the node exists and is currently up.
func (n *Network) Alive(id node.ID) bool {
	st := n.state(id)
	return st != nil && st.alive
}

// Size returns the number of alive nodes. The count is maintained
// incrementally by Spawn/Kill/Revive, so calling it mid-churn never
// forces an alive-list rebuild.
func (n *Network) Size() int { return n.aliveCount }

// Population returns the total number of ever-spawned nodes.
func (n *Network) Population() int { return len(n.nodes) }

// AliveIDs returns the sorted IDs of alive nodes. The returned slice must
// not be mutated. Nodes are stored in ID order (IDs are dense from 1), so
// the rebuild is a single ordered pass — no sort needed.
func (n *Network) AliveIDs() []node.ID {
	if n.aliveCache == nil {
		ids := make([]node.ID, 0, n.aliveCount)
		for _, st := range n.nodes {
			if st.alive {
				ids = append(ids, st.id)
			}
		}
		n.aliveCache = ids
	}
	return n.aliveCache
}

// Kill takes a node down. With permanent=true the node can never return
// and its state is conceptually lost; with permanent=false this models the
// paper's dominant churn mode, a transient failure (reboot) after which
// the node returns with its durable state intact.
func (n *Network) Kill(id node.ID, permanent bool) {
	st := n.state(id)
	if st == nil || !st.alive {
		return
	}
	st.alive = false
	st.permanent = st.permanent || permanent
	n.aliveCache = nil
	n.aliveCount--
}

// Revive brings a transiently failed node back; its machine's Start runs
// again so recovery protocols (re-sync, view refresh) can kick in. Reviving
// a permanently failed or alive node is a no-op.
func (n *Network) Revive(id node.ID) {
	st := n.state(id)
	if st == nil || st.alive || st.permanent {
		return
	}
	st.alive = true
	n.aliveCache = nil
	n.aliveCount++
	n.emit(id, st.machine.Start(n.round))
}

// Emit enqueues envelopes produced outside the normal Tick/Handle flow,
// e.g. by an experiment driver invoking a client operation directly on a
// machine. The envelopes are attributed to from.
func (n *Network) Emit(from node.ID, envs []Envelope) { n.emit(from, envs) }

// SetFault installs (or, with nil, removes) a fault injector. Injected
// faults act on top of the base Loss/delay model; the injector is invoked
// in the serial commit phase only, so installing one never perturbs the
// cross-worker determinism contract. A Scenario with no currently active
// events consumes no randomness and leaves the trace untouched, so the
// same seed with and without an idle scenario attached behaves
// identically.
func (n *Network) SetFault(f FaultInjector) { n.fault = f }

// emit enqueues envelopes. The loss draw is skipped entirely when
// Loss == 0 and the delay draw when MinDelay == MaxDelay, so the common
// lossless fixed-delay configuration consumes no fabric randomness per
// message — and therefore none of the RNG stream other draws depend on.
func (n *Network) emit(from node.ID, envs []Envelope) {
	for _, e := range envs {
		n.Stats.Sent.Inc()
		// Fault overlay first: a partitioned message never reaches the
		// link, so it must not consume a base loss/delay draw (healing the
		// partition then replays the exact fault-free RNG stream).
		extra := 0
		if n.fault != nil {
			var drop bool
			drop, extra = n.fault.FilterMsg(n.round, from, e.To)
			if drop {
				n.Stats.LostFault.Inc()
				continue
			}
			if extra < 0 {
				// Negative extra delay would break the ring invariant
				// (due rounds strictly after the current round); a fault
				// can slow a message down, never accelerate it.
				extra = 0
			}
		}
		if n.cfg.Loss > 0 && n.rng.Float64() < n.cfg.Loss {
			n.Stats.LostLink.Inc()
			continue
		}
		d := n.cfg.MinDelay
		if !n.fixDelay {
			d += n.rng.Intn(n.cfg.MaxDelay - n.cfg.MinDelay + 1)
		}
		d += extra
		if d >= len(n.queue) {
			n.growQueue(d + 1)
		}
		slot := int(uint64(n.round+Round(d)) % uint64(len(n.queue)))
		s := n.queue[slot]
		if s == nil {
			if k := len(n.free); k > 0 {
				s = n.free[k-1]
				n.free = n.free[:k-1]
			}
		}
		n.queue[slot] = append(s, delivery{from: from, to: e.To, msg: e.Msg})
		n.inFlight++
	}
}

// growQueue widens the delay ring to at least need slots, re-bucketing
// every pending delivery. The ring is sized for Config.MaxDelay at New;
// fault-injected extra delay can exceed that, and growth happens at most
// a handful of times per run (the ring only ever widens). Slot i of the
// old ring holds the unique due round r ≡ i (mod L) in (round, round+L],
// and a slot's deliveries all share one round, so moving whole slices
// preserves per-round enqueue order exactly.
func (n *Network) growQueue(need int) {
	old := n.queue
	oldLen := len(old)
	n.queue = make([][]delivery, need)
	base := n.round + 1 // earliest possibly-pending round
	baseSlot := int(uint64(base) % uint64(oldLen))
	for i, s := range old {
		if len(s) == 0 {
			if s != nil {
				n.free = append(n.free, s[:0])
			}
			continue
		}
		r := base + Round((i-baseSlot+oldLen)%oldLen)
		n.queue[int(uint64(r)%uint64(need))] = s
	}
}

// Step advances the simulation one round: deliver everything due this
// round (in enqueue order), then tick every alive node in ID order. With
// Workers > 1 the Handle/Tick calls run on the worker pool and their
// emissions are committed afterwards in exactly the serial order, so the
// trace is byte-identical either way (see the package doc).
func (n *Network) Step() {
	n.round++
	slot := int(uint64(n.round) % uint64(len(n.queue)))
	due := n.queue[slot]
	n.queue[slot] = nil
	n.inFlight -= len(due)
	if n.cfg.Workers > 1 && len(n.nodes) > 0 {
		n.stepParallel(due)
	} else {
		n.stepSerial(due)
	}
	if due != nil {
		// Recycle the drained slice: clear payload references so message
		// bodies are collectable, keep the capacity for future rounds.
		for i := range due {
			due[i] = delivery{}
		}
		n.free = append(n.free, due[:0])
	}
}

// stepSerial is the single-threaded executor: compute and commit are
// interleaved (each Handle/Tick's emissions enter the fabric immediately).
func (n *Network) stepSerial(due []delivery) {
	for _, d := range due {
		st := n.state(d.to)
		if st == nil || !st.alive {
			n.Stats.LostDead.Inc()
			continue
		}
		n.Stats.Delivered.Inc()
		n.emit(d.to, st.machine.Handle(n.round, d.from, d.msg))
	}
	for _, st := range n.nodes {
		if st.alive {
			n.emit(st.id, st.machine.Tick(n.round))
		}
	}
}

// Close releases the worker pool of a parallel network. It is a no-op for
// serial networks and is safe to call more than once; stepping a parallel
// network after Close panics (silently rebuilding the pool would leak the
// goroutines the caller just released).
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.close()
		n.pool = nil
	}
	n.poolClosed = true
}

// Run advances the simulation by the given number of rounds.
func (n *Network) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		n.Step()
	}
}

// Quiesce steps until no messages are in flight or maxRounds elapse, and
// returns the number of rounds stepped. Useful for draining dissemination.
func (n *Network) Quiesce(maxRounds int) int {
	for i := 0; i < maxRounds; i++ {
		if n.inFlight == 0 {
			return i
		}
		n.Step()
	}
	return maxRounds
}

// InFlight returns the number of queued, undelivered messages.
func (n *Network) InFlight() int { return n.inFlight }

// String summarises fabric statistics.
func (n *Network) String() string {
	return fmt.Sprintf("round=%d alive=%d sent=%d delivered=%d lostLink=%d lostDead=%d lostFault=%d",
		n.round, n.Size(), n.Stats.Sent.Value(), n.Stats.Delivered.Value(),
		n.Stats.LostLink.Value(), n.Stats.LostDead.Value(), n.Stats.LostFault.Value())
}
