// Package server is the live DataDroplets node: it fuses a soft-state
// node and an epidemic persistent node into one transport machine, and
// serves the DDB1 client protocol (docs/PROTOCOL.md) over TCP with
// pipelining, per-connection backpressure, per-op deadlines and graceful
// drain. cmd/datadroplets is a thin flag wrapper around this package;
// the benchmark in bench/ boots several of these in-process.
package server

import (
	"math/rand"

	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// machine is both DataDroplets layers of one process as a single
// sim.Machine: a soft-state node (sequencer, directory, cache, client
// op tracking) stacked on an epidemic persistent node, sharing one node
// ID. It is also the one place a client PUT, DEL or GET runs: submit
// starts the op, and the end of every Tick and Handle settles the ops
// that step completed. Dispatch is by message type — the soft-bound
// reply types (StoreAck, ReadResp, ScanResp, AggResp, RecoverResp) are
// disjoint from the epidemic-bound ones.
//
// Every server sequences its own clients' writes (docs/DESIGN.md §4), so
// Handle first folds the version of every tuple the node receives into
// the sequencer, whether or not the sieve keeps it: the floor covers
// every version the node has heard of, its store's included, so a
// version-exact read serves no superseded tuple and a write never loses
// to one the node heard of without storing.
type machine struct {
	soft *core.SoftNode
	en   *epidemic.Node
	// now mirrors the last round Start, Tick or Handle reported; OnHint
	// fires from inside epidemic processing, which has no round parameter.
	now sim.Round
	// opRounds is a client op's deadline, in rounds after its submission.
	opRounds sim.Round
	// pending maps armed op IDs to the slots they will settle.
	pending map[uint64]*slot
	// finish settles a slot from its resolved op. It runs wherever the
	// machine runs — on the transport driver in the live server, inside
	// the node's compute slot under the simulator — so it may touch only
	// its slot and atomic counters.
	finish func(sl *slot, op *core.Op)
}

// newMachine builds node cfg.Self (cfg normalized) of the population ids
// and wires its two layers together. Both live in this process, so the
// soft layer serves version-exact reads straight from the collocated
// replica instead of round-tripping the fabric (LocalRead). The epidemic
// node's OnHint hook — called when this node stores a write it itself
// originated, the common case since the soft layer enters writes
// locally — is bridged into the soft half as a synthetic StoreAck, so
// local storage acknowledges the client op exactly like a remote
// replica would.
func newMachine(cfg Config, rng *rand.Rand, ids []node.ID, finish func(*slot, *core.Op)) *machine {
	view := membership.NewUniformView(cfg.Self, rng, func() []node.ID { return ids })
	en := epidemic.New(cfg.Self, rng, view, epidemic.Config{
		Replication:      cfg.Replication,
		FanoutC:          cfg.FanoutC,
		AntiEntropyEvery: antiEntropyEvery,
	})
	soft := core.NewSoftNode(cfg.Self, rng, &entrySampler{self: cfg.Self, inner: view},
		core.SoftConfig{WriteAcks: cfg.WriteAcks})
	soft.LocalRead = en.St.Peek
	m := &machine{
		soft:     soft,
		en:       en,
		opRounds: max(1, sim.Round(cfg.OpTimeout/cfg.TickInterval)),
		pending:  make(map[uint64]*slot),
		finish:   finish,
	}
	en.OnHint = func(key string, holder node.ID, v tuple.Version) {
		m.soft.Handle(m.now, holder, epidemic.StoreAck{Key: key, Version: v})
	}
	return m
}

func (m *machine) Start(now sim.Round) []sim.Envelope {
	m.now = now
	return append(m.en.Start(now), m.soft.Start(now)...)
}

func (m *machine) Tick(now sim.Round) []sim.Envelope {
	m.now = now
	defer m.settle()
	// The soft tick expires client ops whose deadline passed; the
	// epidemic tick runs gossip, anti-entropy and estimation.
	return append(m.en.Tick(now), m.soft.Tick(now)...)
}

func (m *machine) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	m.now = now
	defer m.settle()
	m.observe(msg)
	switch msg.(type) {
	case epidemic.StoreAck, epidemic.ReadResp, epidemic.ScanResp,
		epidemic.AggResp, epidemic.RecoverResp:
		return m.soft.Handle(now, from, msg)
	}
	return m.en.Handle(now, from, msg)
}

// observe folds into the sequencer the version of every valid tuple
// msg carries: a rumor push or digest reply, or a repair message that
// ships tuples. A tuple that fails tuple.Validate raises no floor; the
// epidemic node and its repair manager refuse and count it.
func (m *machine) observe(msg any) {
	var rumors []gossip.Rumor
	var ts []*tuple.Tuple
	switch msg := msg.(type) {
	case gossip.RumorMsg:
		rumors = []gossip.Rumor{msg.Rumor}
	case gossip.DigestResp:
		rumors = msg.Rumors
	case repair.SyncPush:
		ts = msg.Tuples
	case repair.AdoptReq:
		ts = msg.Tuples
	case repair.SupersedeResp:
		ts = msg.Newer
	}
	for _, r := range rumors {
		if wp, ok := r.Payload.(epidemic.WritePayload); ok {
			m.fold(wp.Tuple)
		}
	}
	for _, t := range ts {
		m.fold(t)
	}
}

// fold raises the sequencer's floor for t's key to t's version, if t is
// valid.
func (m *machine) fold(t *tuple.Tuple) {
	if t.Validate() == nil {
		m.soft.Seq.Observe(t.Key, t.Version)
	}
}

// submit starts the client op sl carries (PUT, DEL or GET) on key; value
// is a PUT's own copy, which the soft layer takes over. An op that
// resolves during submission (a version-exact read, a validation
// failure) is finished at once; any other is armed with its deadline
// and settles later.
func (m *machine) submit(now sim.Round, sl *slot, key string, value []byte) []sim.Envelope {
	var id uint64
	var envs []sim.Envelope
	if sl.kind == wire.OpGet {
		id, envs = m.soft.Get(now, key)
	} else {
		id, envs = m.soft.Put(now, key, value, nil, nil, sl.kind == wire.OpDel)
	}
	if op, _ := m.soft.Op(id); op.Done {
		m.finish(sl, op)
		m.soft.ForgetOp(id)
	} else {
		m.soft.Arm(id, now+m.opRounds)
		m.pending[id] = sl
	}
	return envs
}

// settle finishes every armed op the step just run completed; Tick and
// Handle defer it, so it runs once their own work is done.
func (m *machine) settle() {
	for _, op := range m.soft.TakeCompleted() {
		if sl, ok := m.pending[op.ID]; ok {
			delete(m.pending, op.ID)
			m.finish(sl, op)
		}
		m.soft.ForgetOp(op.ID)
	}
}

// entrySampler adapts the peer view for the collocated soft layer: the
// write entry point is always the local epidemic node (One), and read
// probes include self alongside sampled peers — the local store is a
// replica like any other and must be probed.
type entrySampler struct {
	self  node.ID
	inner membership.Sampler
}

func (e *entrySampler) One() node.ID { return e.self }

func (e *entrySampler) Sample(k int) []node.ID {
	if k <= 1 {
		return []node.ID{e.self}
	}
	return append(e.inner.Sample(k-1), e.self)
}
