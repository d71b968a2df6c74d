// Async client engine: many operations in flight at once, all sharing
// simulation rounds. Submitting returns a *Pending handle immediately;
// Drain/WaitAll step the network once per round while resolving every
// completed op across all soft nodes. The synchronous Cluster methods
// (Put/Get/Delete/Scan/Aggregate) are thin wrappers: submit one op,
// drive the network until that handle resolves.

package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// Per-op round budgets, matching the bounds the old one-op-at-a-time
// driver loop used.
const (
	DefaultOpRounds   = 200
	DefaultScanRounds = 300
	DefaultAggRounds  = 100
)

// Pending is a handle to an in-flight client operation. It resolves as
// the network is stepped (Drain, WaitAll, or the synchronous wrappers);
// accessors are valid any time and report completion state.
type Pending struct {
	Kind OpKind
	Key  string

	s        *SoftNode
	id       uint64
	deadline sim.Round

	done   bool
	err    error
	tuple  *tuple.Tuple
	tuples []*tuple.Tuple
	agg    epidemic.AggResp
}

// Done reports whether the operation has resolved.
func (p *Pending) Done() bool { return p.done }

// Err returns the operation error (nil until resolved, and nil on
// success). Gets that found nothing resolve to ErrNotFound, expired ops
// to ErrTimeout.
func (p *Pending) Err() error { return p.err }

// Tuple returns the Get result (nil otherwise or on miss).
func (p *Pending) Tuple() *tuple.Tuple { return p.tuple }

// Tuples returns the Scan result, possibly partial on timeout.
func (p *Pending) Tuples() []*tuple.Tuple { return p.tuples }

// Agg returns the Aggregate result.
func (p *Pending) Agg() epidemic.AggResp { return p.agg }

// failed builds an already-resolved handle for ops that cannot even be
// submitted (e.g. no alive soft node).
func failedPending(kind OpKind, key string, err error) *Pending {
	return &Pending{Kind: kind, Key: key, done: true, err: err}
}

// errNoSoft is the submission error when routing finds no alive soft node.
var errNoSoft = errors.New("core: no alive soft node")

// track emits the op's envelopes and registers the handle with the
// engine: the soft node now owns completion (reply or deadline expiry)
// and queues the finished op for reap, which runs after each committed
// round — never from inside the node's own Handle/Tick, where touching
// cluster-level state would break the fabric's node-confinement contract.
func (c *Cluster) track(s *SoftNode, kind OpKind, key string, opID uint64, envs []sim.Envelope, budget int) *Pending {
	c.Net.Emit(s.Self, envs)
	p := &Pending{Kind: kind, Key: key, s: s, id: opID}
	op, ok := s.Op(opID)
	if !ok {
		p.done = true
		p.err = fmt.Errorf("core: unknown op %d", opID)
		return p
	}
	if op.Done {
		c.settle(p, op)
		return p
	}
	p.deadline = c.Net.Round() + sim.Round(budget)
	s.Arm(opID, p.deadline)
	if len(c.inflight) == 0 {
		// Nothing tracked: drop the stale bound from earlier batches so
		// WaitAll never waits for deadlines of long-resolved ops.
		c.maxDeadline = 0
	}
	c.inflight[opID] = p
	if p.deadline > c.maxDeadline {
		c.maxDeadline = p.deadline
	}
	return p
}

// reap is the engine's half of the commit phase: collect every op the
// soft nodes completed during the round just stepped and settle its
// handle. Soft nodes are visited in ID order and each queue is in
// completion order, so resolution order is deterministic.
func (c *Cluster) reap() {
	if len(c.inflight) == 0 {
		return
	}
	for _, id := range c.softIDs {
		for _, op := range c.Softs[id].TakeCompleted() {
			p, tracked := c.inflight[op.ID]
			if !tracked {
				continue // already force-expired and settled
			}
			delete(c.inflight, op.ID)
			c.settle(p, op)
		}
	}
}

// settle folds a finished op into its handle and releases the op from
// the soft node's registry.
func (c *Cluster) settle(p *Pending, op *Op) {
	p.done = true
	p.tuple, p.tuples, p.agg = op.Tuple, op.Tuples, op.Agg
	switch {
	case op.Expired:
		p.err = ErrTimeout
	case op.Kind == OpGet:
		if op.Tuple == nil {
			p.err = ErrNotFound
		}
	case op.Err != "":
		p.err = errors.New(op.Err)
	}
	p.s.ForgetOp(op.ID)
}

// PutAsync submits a write and returns immediately. value, attrs and
// tags stay the caller's: this is the boundary that copies them, once,
// into the tuple the cluster then shares (SoftNode.Put).
func (c *Cluster) PutAsync(key string, value []byte, attrs map[string]float64, tags []string) *Pending {
	s := c.Route(key)
	if s == nil {
		return failedPending(OpPut, key, errNoSoft)
	}
	opID, envs := s.Put(c.Net.Round(), key, slices.Clone(value), maps.Clone(attrs), slices.Clone(tags), false)
	return c.track(s, OpPut, key, opID, envs, DefaultOpRounds)
}

// DeleteAsync submits a tombstone write and returns immediately.
func (c *Cluster) DeleteAsync(key string) *Pending {
	s := c.Route(key)
	if s == nil {
		return failedPending(OpDelete, key, errNoSoft)
	}
	opID, envs := s.Put(c.Net.Round(), key, nil, nil, nil, true)
	return c.track(s, OpDelete, key, opID, envs, DefaultOpRounds)
}

// GetAsync submits a read and returns immediately.
func (c *Cluster) GetAsync(key string) *Pending {
	s := c.Route(key)
	if s == nil {
		return failedPending(OpGet, key, errNoSoft)
	}
	opID, envs := s.Get(c.Net.Round(), key)
	return c.track(s, OpGet, key, opID, envs, DefaultOpRounds)
}

// ScanAsync submits an ordered range scan and returns immediately.
func (c *Cluster) ScanAsync(attr string, lo, hi float64, maxHops int) *Pending {
	s := c.AnySoft()
	if s == nil {
		return failedPending(OpScan, "", errNoSoft)
	}
	opID, envs := s.Scan(attr, lo, hi, maxHops)
	return c.track(s, OpScan, "", opID, envs, DefaultScanRounds)
}

// AggregateAsync submits an aggregate query and returns immediately.
func (c *Cluster) AggregateAsync(attr string) *Pending {
	s := c.AnySoft()
	if s == nil {
		return failedPending(OpAgg, attr, errNoSoft)
	}
	opID, envs := s.Aggregate(attr)
	return c.track(s, OpAgg, attr, opID, envs, DefaultAggRounds)
}

// InFlightOps returns the number of unresolved tracked operations.
func (c *Cluster) InFlightOps() int { return len(c.inflight) }

// Drain steps the network once per round while completed ops resolve,
// until nothing is in flight or maxRounds elapse. Returns the number of
// rounds stepped.
func (c *Cluster) Drain(maxRounds int) int {
	for i := 0; i < maxRounds; i++ {
		if len(c.inflight) == 0 {
			return i
		}
		c.Step()
	}
	return maxRounds
}

// WaitAll drains until every in-flight op resolves and returns the
// rounds stepped. Per-op deadlines bound the wait; ops stranded on a
// soft node that died mid-flight (its Tick never runs, so it cannot
// expire them) are force-expired once the latest deadline passes.
func (c *Cluster) WaitAll() int {
	steps := 0
	for len(c.inflight) > 0 && c.Net.Round() <= c.maxDeadline {
		c.Step()
		steps++
	}
	c.expireStranded()
	return steps
}

// expireStranded times out, in ID order for determinism, every tracked
// op whose deadline passed without its soft node expiring it.
func (c *Cluster) expireStranded() {
	if len(c.inflight) == 0 {
		return
	}
	ids := make([]uint64, 0, len(c.inflight))
	for id := range c.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := c.inflight[id]
		delete(c.inflight, id)
		c.forceExpire(p)
	}
}

// forceExpire resolves a handle as timed out from the client's side,
// keeping any partial results the op accumulated. Marking the op Done
// directly (not via complete) keeps it out of the soft node's completion
// queue, so a later reap cannot settle it twice.
func (c *Cluster) forceExpire(p *Pending) {
	if p.done {
		return
	}
	if op, ok := p.s.Op(p.id); ok {
		op.Expired = true
		op.Done = true
		c.settle(p, op)
		return
	}
	p.done, p.err = true, ErrTimeout
}

// wait drives the network until one handle resolves — the synchronous
// client path, expressed against the async engine.
func (c *Cluster) wait(p *Pending) {
	for !p.done && c.Net.Round() <= p.deadline {
		c.Step()
	}
	if !p.done {
		delete(c.inflight, p.id)
		c.forceExpire(p)
	}
}

// BatchOp describes one operation of a mixed batch. Only OpPut, OpGet
// and OpDelete are batchable.
type BatchOp struct {
	Kind  OpKind
	Key   string
	Value []byte
	Attrs map[string]float64
	Tags  []string
}

// BatchResult reports one batch op's outcome.
type BatchResult struct {
	Tuple *tuple.Tuple // Get result (nil for writes and misses)
	Err   error
}

// Batch routes a mixed op slice to the responsible soft nodes, runs all
// ops concurrently sharing simulation rounds, and reports per-op results
// in input order.
func (c *Cluster) Batch(ops []BatchOp) []BatchResult {
	ps := make([]*Pending, len(ops))
	for i, o := range ops {
		switch o.Kind {
		case OpPut:
			ps[i] = c.PutAsync(o.Key, o.Value, o.Attrs, o.Tags)
		case OpGet:
			ps[i] = c.GetAsync(o.Key)
		case OpDelete:
			ps[i] = c.DeleteAsync(o.Key)
		default:
			ps[i] = failedPending(o.Kind, o.Key, fmt.Errorf("core: kind %d not batchable", o.Kind))
		}
	}
	c.WaitAll()
	out := make([]BatchResult, len(ops))
	for i, p := range ps {
		out[i] = BatchResult{Tuple: p.Tuple(), Err: p.Err()}
	}
	return out
}
