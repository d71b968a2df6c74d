// Package server is the live DataDroplets node: it fuses a soft-state
// node and an epidemic persistent node into one transport machine, and
// serves the DDB1 client protocol (docs/PROTOCOL.md) over TCP with
// pipelining, per-connection backpressure, per-op deadlines and graceful
// drain. cmd/datadroplets is a thin flag wrapper around this package;
// the benchmark in bench/ boots several of these in-process.
package server

import (
	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// machine is both DataDroplets layers of one process as a single
// sim.Machine: a soft-state node (sequencer, directory, cache, client
// op tracking) stacked on an epidemic persistent node, sharing one node
// ID. Dispatch is by message type — the soft-bound reply types
// (StoreAck, ReadResp, ScanResp, AggResp, RecoverResp) are disjoint
// from the epidemic-bound ones, and WriteCmd is the documented handoff
// from the soft layer into epidemic dissemination.
type machine struct {
	soft *core.SoftNode
	en   *epidemic.Node
	// now mirrors the last round the driver reported; OnHint fires from
	// inside epidemic processing, which has no round parameter.
	now sim.Round
}

// newMachine wires the two layers together. The epidemic node's OnHint
// hook — called when this node stores a write it itself originated,
// the common case since the soft layer enters writes locally — is
// bridged into the soft half as a synthetic StoreAck, so local storage
// acknowledges the client op exactly like a remote replica would.
func newMachine(soft *core.SoftNode, en *epidemic.Node) *machine {
	m := &machine{soft: soft, en: en}
	en.OnHint = func(key string, holder node.ID, v tuple.Version) {
		m.soft.Handle(m.now, holder, epidemic.StoreAck{Key: key, Version: v})
	}
	return m
}

var _ sim.Machine = (*machine)(nil)

func (m *machine) Start(now sim.Round) []sim.Envelope {
	m.now = now
	return append(m.en.Start(now), m.soft.Start(now)...)
}

func (m *machine) Tick(now sim.Round) []sim.Envelope {
	m.now = now
	// The soft tick expires client ops whose deadline passed; the
	// epidemic tick runs gossip, anti-entropy and estimation.
	return append(m.en.Tick(now), m.soft.Tick(now)...)
}

func (m *machine) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	m.now = now
	switch c := msg.(type) {
	case core.WriteCmd:
		return m.en.WriteFrom(now, c.ReplyTo, c.Tuple)
	case epidemic.StoreAck, epidemic.ReadResp, epidemic.ScanResp,
		epidemic.AggResp, epidemic.RecoverResp:
		return m.soft.Handle(now, from, msg)
	default:
		return m.en.Handle(now, from, msg)
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

var _ membership.Sampler = (*entrySampler)(nil)

func (e *entrySampler) One() node.ID { return e.self }

func (e *entrySampler) Sample(k int) []node.ID {
	if k <= 1 {
		return []node.ID{e.self}
	}
	return append(e.inner.Sample(k-1), e.self)
}
