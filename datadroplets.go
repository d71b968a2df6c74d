// Package datadroplets is an epidemic key-value substrate: a Go
// implementation of the DataDroplets architecture from "An epidemic
// approach to dependable key-value substrates" (Matos, Vilaça, Pereira,
// Oliveira — DSN 2011).
//
// The system has two layers. A small structured soft-state layer orders
// writes (per-key versions), caches tuples and keeps routing metadata in
// memory. The persistent layer is fully unstructured: writes spread by
// epidemic dissemination with fanout ln(N̂)+c, every node applies a local
// sieve to decide what it stores (target redundancy r), and redundancy
// is maintained probabilistically with random-walk range checks and
// direct peer synchronisation — no global membership, no master, no DHT
// in the data path.
//
// Quickstart:
//
//	c := datadroplets.New(datadroplets.WithNodes(32), datadroplets.WithReplication(3))
//	defer c.Close()
//	c.Advance(20) // let estimators warm up
//	_ = c.Put("user:1", []byte("alice"), nil, nil)
//	t, _ := c.Get("user:1")
//	fmt.Println(string(t.Value))
//
// The cluster runs in-process on a deterministic round-driven fabric:
// Advance moves background protocols (gossip, repair, estimation) along,
// while Put/Get/Scan/Aggregate step automatically until their operation
// completes. Use cmd/datadroplets for a TCP-networked node.
//
// # Pipelined operations
//
// The synchronous helpers drive the whole network for one operation at
// a time. For throughput, submit many operations and let them share
// gossip rounds: PutAsync/GetAsync/DeleteAsync return *Async handles
// immediately, Drain/Wait step the network while resolving every
// completed operation, and Batch/BatchPut wrap the submit-all-then-wait
// pattern with per-operation errors:
//
//	handles := make([]*datadroplets.Async, 0, 512)
//	for i := 0; i < 512; i++ {
//		handles = append(handles, c.PutAsync(fmt.Sprintf("k-%d", i), []byte("v"), nil, nil))
//	}
//	c.Wait() // all 512 writes share the same simulated rounds
//	for _, h := range handles {
//		if h.Err() != nil { /* per-op failure */ }
//	}
//
// Operations carry per-op deadlines, so a soft node can hold hundreds of
// pending requests and expire stragglers itself; a mixed 512-op batch
// completes in a small fraction of the rounds the serial path needs.
package datadroplets

import (
	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// Tuple is the public record type: a key, an opaque value, numeric
// attributes (placement, scans, aggregation) and correlation tags.
type Tuple = tuple.Tuple

// Version orders writes to one key.
type Version = tuple.Version

// AggResult carries aggregate estimates for one attribute. Sum/Avg come
// from push-sum gossip; Count (when non-zero) is the KMV distinct tuple
// count, which is immune to replication duplicates.
type AggResult struct {
	Avg, Min, Max, Sum float64
	Count              float64
	NEstimate          float64
}

// Sentinel errors re-exported from the engine.
var (
	ErrNotFound = core.ErrNotFound
	ErrTimeout  = core.ErrTimeout
)

type config struct {
	cluster core.ClusterConfig
}

// Option configures a Cluster.
type Option func(*config)

// WithNodes sets the persistent-layer size.
func WithNodes(n int) Option {
	return func(c *config) { c.cluster.PersistentNodes = n }
}

// WithSoftNodes sets the soft-state layer size.
func WithSoftNodes(n int) Option {
	return func(c *config) { c.cluster.SoftNodes = n }
}

// WithReplication sets the target copy count r.
func WithReplication(r int) Option {
	return func(c *config) { c.cluster.Persist.Replication = r }
}

// WithFanoutC sets the c in the dissemination fanout ln(N̂)+c.
func WithFanoutC(fc float64) Option {
	return func(c *config) { c.cluster.Persist.FanoutC = fc }
}

// WithSeed makes the deployment reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) { c.cluster.Seed = seed }
}

// WithLoss sets the message loss probability of the fabric.
func WithLoss(p float64) Option {
	return func(c *config) { c.cluster.Loss = p }
}

// WithWorkers shards the fabric's compute phase across the given number
// of workers. Behaviour — every result, error and round count — is
// byte-identical at any setting (the simulator's deterministic two-phase
// executor); only wall-clock time changes. Call Close on the cluster
// when done to release the worker pool.
func WithWorkers(w int) Option {
	return func(c *config) { c.cluster.Workers = w }
}

// WithQuantileSieve enables distribution-aware placement and ordered
// range scans over attr.
func WithQuantileSieve(attr string) Option {
	return func(c *config) {
		c.cluster.Persist.Sieve = epidemic.SieveQuantile
		c.cluster.Persist.QuantileAttr = attr
		c.cluster.Persist.OrderAttr = true
	}
}

// WithTagSieve collocates tuples by primary tag.
func WithTagSieve() Option {
	return func(c *config) { c.cluster.Persist.Sieve = epidemic.SieveTag }
}

// WithAggregates enables continuous push-sum aggregation of the given
// attributes (use "count" for tuple counting). Counting additionally
// enables the duplicate-insensitive KMV sketch so the count is exact
// with respect to replication (unless a quantile sieve already claims
// the distribution estimator for its own attribute).
func WithAggregates(attrs ...string) Option {
	return func(c *config) {
		c.cluster.Persist.AggregateAttrs = attrs
		for _, a := range attrs {
			if a == "count" && c.cluster.Persist.QuantileAttr == "" {
				c.cluster.Persist.EstimateAttr = "count"
			}
		}
	}
}

// WithCacheSize sets the per-soft-node tuple cache capacity.
func WithCacheSize(n int) Option {
	return func(c *config) { c.cluster.Soft.CacheSize = n }
}

// WithAntiEntropy enables gossip digest repair every `rounds` rounds.
func WithAntiEntropy(rounds int) Option {
	return func(c *config) { c.cluster.Persist.AntiEntropyEvery = rounds }
}

// WithWriteAcks makes Put wait for n storage acknowledgements.
func WithWriteAcks(n int) Option {
	return func(c *config) { c.cluster.Soft.WriteAcks = n }
}

// Cluster is an in-process DataDroplets deployment.
type Cluster struct {
	inner  *core.Cluster
	faults *Faults
}

// New builds and boots a cluster. Call Advance(≈20) before the first
// write so the size and distribution estimators have converged.
func New(opts ...Option) *Cluster {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	return &Cluster{inner: core.NewCluster(cfg.cluster)}
}

// Advance runs the background protocols for n rounds.
func (c *Cluster) Advance(n int) { c.inner.Run(n) }

// Put stores value (and optional attributes/tags) under key, waiting for
// the configured number of storage acknowledgements.
func (c *Cluster) Put(key string, value []byte, attrs map[string]float64, tags []string) error {
	return c.inner.Put(key, value, attrs, tags)
}

// Get returns the latest tuple for key, or ErrNotFound.
func (c *Cluster) Get(key string) (*Tuple, error) {
	return c.inner.Get(key)
}

// Delete tombstones key.
func (c *Cluster) Delete(key string) error {
	return c.inner.Delete(key)
}

// Scan returns tuples whose quantile attribute lies in [lo, hi], walking
// the ordered overlay.
func (c *Cluster) Scan(attr string, lo, hi float64) ([]*Tuple, error) {
	return c.inner.Scan(attr, lo, hi, 200)
}

// Aggregate returns the continuous aggregate estimates for attr.
func (c *Cluster) Aggregate(attr string) (AggResult, error) {
	resp, err := c.inner.Aggregate(attr)
	if err != nil {
		return AggResult{}, err
	}
	return AggResult{
		Avg: resp.Avg, Min: resp.Min, Max: resp.Max, Sum: resp.Sum,
		Count: resp.Count, NEstimate: resp.NEstimate,
	}, nil
}

// Async is a handle to an in-flight operation submitted through
// PutAsync, GetAsync or DeleteAsync. It resolves while the network is
// stepped (Step, Drain, Wait, or any synchronous operation).
type Async struct {
	p *core.Pending
}

// Done reports whether the operation has resolved.
func (a *Async) Done() bool { return a.p.Done() }

// Err returns nil until the operation resolves, then nil on success,
// ErrNotFound for a missing key, ErrTimeout for an expired operation.
func (a *Async) Err() error { return a.p.Err() }

// Tuple returns the Get result once resolved (nil for writes and misses).
func (a *Async) Tuple() *Tuple { return a.p.Tuple() }

// PutAsync submits a write and returns immediately; the handle resolves
// as the network is stepped.
func (c *Cluster) PutAsync(key string, value []byte, attrs map[string]float64, tags []string) *Async {
	return &Async{p: c.inner.PutAsync(key, value, attrs, tags)}
}

// GetAsync submits a read and returns immediately.
func (c *Cluster) GetAsync(key string) *Async {
	return &Async{p: c.inner.GetAsync(key)}
}

// DeleteAsync submits a tombstone write and returns immediately.
func (c *Cluster) DeleteAsync(key string) *Async {
	return &Async{p: c.inner.DeleteAsync(key)}
}

// Step advances the simulation one round, delivering messages and
// resolving any operations they complete.
func (c *Cluster) Step() { c.inner.Step() }

// Round returns the current simulated round.
func (c *Cluster) Round() int { return int(c.inner.Net.Round()) }

// InFlight returns the number of unresolved async operations.
func (c *Cluster) InFlight() int { return c.inner.InFlightOps() }

// Drain steps the network until no submitted operation is in flight or
// maxRounds elapse, and returns the rounds stepped.
func (c *Cluster) Drain(maxRounds int) int { return c.inner.Drain(maxRounds) }

// Wait drains until every in-flight operation resolves (per-op deadlines
// bound the wait) and returns the rounds stepped.
func (c *Cluster) Wait() int { return c.inner.WaitAll() }

// OpKind distinguishes batched operations.
type OpKind = core.OpKind

// Batchable operation kinds.
const (
	OpPut    = core.OpPut
	OpGet    = core.OpGet
	OpDelete = core.OpDelete
)

// BatchOp describes one operation of a mixed batch.
type BatchOp = core.BatchOp

// BatchResult reports one batch operation's outcome.
type BatchResult = core.BatchResult

// Batch submits a mixed operation slice, waits for all of them sharing
// simulation rounds, and reports per-op results in input order.
func (c *Cluster) Batch(ops []BatchOp) []BatchResult {
	return c.inner.Batch(ops)
}

// PutOp describes one write of a BatchPut.
type PutOp struct {
	Key   string
	Value []byte
	Attrs map[string]float64
	Tags  []string
}

// BatchPut pipelines many writes through the cluster at once and
// returns one error slot per write, in input order.
func (c *Cluster) BatchPut(ops []PutOp) []error {
	batch := make([]BatchOp, len(ops))
	for i, o := range ops {
		batch[i] = BatchOp{Kind: OpPut, Key: o.Key, Value: o.Value, Attrs: o.Attrs, Tags: o.Tags}
	}
	res := c.Batch(batch)
	errs := make([]error, len(res))
	for i, r := range res {
		errs[i] = r.Err
	}
	return errs
}

// Faults is the cluster's deterministic fault schedule: scheduled
// partitions, slow nodes, latency spikes, member flapping and
// correlated crashes, applied to the persistent layer's fabric while
// client operations keep running. All schedule randomness derives from
// the cluster seed, so a faulted run is exactly reproducible — and
// byte-identical at every WithWorkers setting.
//
// Rounds are relative to the cluster's current round at the time the
// fault is added: start=0 means "starting now", and each fault stays
// active for length rounds. Node arguments are persistent-node indices
// (the same indexing KillNode uses).
type Faults struct {
	c  *Cluster
	sc *sim.Scenario
}

// Faults returns the cluster's fault schedule, installing it on first
// use. One-shot kills remain available directly via KillNode/ReviveNode.
func (c *Cluster) Faults() *Faults {
	if c.faults == nil {
		sc := sim.NewScenario(c.inner.Seed() ^ 0x0fa7157eed)
		c.inner.SetScenario(sc)
		c.faults = &Faults{c: c, sc: sc}
	}
	return c.faults
}

// ids maps persistent-node indices to fabric node IDs, skipping
// out-of-range indices.
func (f *Faults) ids(indices []int) []NodeID {
	all := f.c.inner.PersistentIDs()
	out := make([]NodeID, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < len(all) {
			out = append(out, all[i])
		}
	}
	return out
}

func (f *Faults) window(start, length int) (sim.Round, sim.Round) {
	s := f.c.inner.Net.Round() + sim.Round(start)
	return s, s + sim.Round(length)
}

// msgWindow is window shifted for per-message faults: the fabric
// filters in-step traffic at the already-incremented round (see the
// sim package's window-clock note), so covering length full simulation
// steps needs one extra end round.
func (f *Faults) msgWindow(start, length int) (sim.Round, sim.Round) {
	s, e := f.window(start, length)
	return s, e + 1
}

// Partition splits the deployment for length rounds: traffic between
// different groups is dropped, then the partition heals. Nodes not
// listed in any group — including every soft-state (client-facing)
// node — share the implicit group 0. Partition(0, 50, farSide) is
// therefore the canonical split-brain as seen from this cluster's
// clients: the listed persistent nodes keep talking among themselves
// but are unreachable from the soft layer and the remaining persistent
// nodes until the heal. Listing several groups additionally cuts the
// listed sides off from each other.
func (f *Faults) Partition(start, length int, groups ...[]int) *Faults {
	s, e := f.msgWindow(start, length)
	idGroups := make([][]NodeID, len(groups))
	for i, g := range groups {
		idGroups[i] = f.ids(g)
	}
	f.sc.AddPartition("partition", s, e, idGroups...)
	return f
}

// SlowNodes degrades the listed nodes for length rounds: every message
// to or from them is dropped with probability loss and delayed by
// extraDelay additional rounds.
func (f *Faults) SlowNodes(start, length, extraDelay int, loss float64, indices ...int) *Faults {
	s, e := f.msgWindow(start, length)
	for _, id := range f.ids(indices) {
		f.sc.AddSlowNode("slow-node", s, e, id, loss, extraDelay, 0)
	}
	return f
}

// LatencySpike delays every message by extraDelay plus uniform jitter
// in [0, jitter] rounds for length rounds.
func (f *Faults) LatencySpike(start, length, extraDelay, jitter int) *Faults {
	s, e := f.msgWindow(start, length)
	f.sc.AddLatencySpike("latency-spike", s, e, extraDelay, jitter, 0)
	return f
}

// Flap cycles the listed nodes down and up for length rounds: down for
// downFor rounds at the start of every period. Everyone is revived when
// the window closes.
func (f *Faults) Flap(start, length, period, downFor int, indices ...int) *Faults {
	s, e := f.window(start, length)
	f.sc.AddFlap("flap", s, e, period, downFor, f.ids(indices)...)
	return f
}

// MassCrash fails the given fraction of then-alive persistent nodes
// simultaneously `start` rounds from now (transiently — durable state
// survives); the cohort revives together reviveAfter rounds later. The
// soft (client-facing) layer is never in the cohort, keeping the
// Faults contract that client operations continue during faults.
func (f *Faults) MassCrash(start int, fraction float64, reviveAfter int) *Faults {
	at, _ := f.window(start, 0)
	f.sc.AddMassCrashIn("mass-crash", at, f.c.inner.PersistentIDs(), fraction, false, reviveAfter)
	return f
}

// KillNode takes a persistent node down (transient when permanent is
// false) — failure injection for demos and tests.
func (c *Cluster) KillNode(index int, permanent bool) {
	ids := c.inner.PersistentIDs()
	if index >= 0 && index < len(ids) {
		c.inner.Net.Kill(ids[index], permanent)
	}
}

// ReviveNode brings a transiently failed persistent node back.
func (c *Cluster) ReviveNode(index int) {
	ids := c.inner.PersistentIDs()
	if index >= 0 && index < len(ids) {
		c.inner.Net.Revive(ids[index])
	}
}

// Holders reports how many alive persistent nodes store key.
func (c *Cluster) Holders(key string) int {
	return c.inner.PersistentHolders(key)
}

// Nodes returns the persistent-layer size (alive).
func (c *Cluster) Nodes() int {
	n := 0
	for _, id := range c.inner.PersistentIDs() {
		if c.inner.Net.Alive(id) {
			n++
		}
	}
	return n
}

// NEstimate returns one node's current epidemic estimate of the system
// size.
func (c *Cluster) NEstimate() float64 {
	for _, id := range c.inner.PersistentIDs() {
		if c.inner.Net.Alive(id) {
			return c.inner.Pers[id].NEstimate()
		}
	}
	return 0
}

// WipeSoftLayer simulates catastrophic soft-state loss.
func (c *Cluster) WipeSoftLayer() { c.inner.WipeSoftLayer() }

// RecoverSoftLayer rebuilds soft-state metadata from the persistent
// layer; returns the number of recovered keys.
func (c *Cluster) RecoverSoftLayer() (int, error) {
	return c.inner.RecoverSoftLayer(8, 1<<20, 200)
}

// Close releases the cluster's fabric worker pool (a no-op for the
// default serial fabric).
func (c *Cluster) Close() { c.inner.Close() }

// NodeID is re-exported for tooling that inspects per-node state.
type NodeID = node.ID
