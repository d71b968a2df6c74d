package core

import (
	"errors"
	"math/rand"

	"datadroplets/internal/dht"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// ClusterConfig sizes a DataDroplets deployment.
type ClusterConfig struct {
	// SoftNodes is the size of the structured soft-state layer
	// ("moderately sized and thus manageable with a structured
	// approach"). Zero means 4.
	SoftNodes int
	// PersistentNodes is the size of the epidemic persistent layer.
	// Zero means 32.
	PersistentNodes int
	// Seed drives all randomness.
	Seed int64
	// Loss is the fabric's per-message loss probability.
	Loss float64
	// Workers shards the fabric's compute phase (sim.Config.Workers);
	// client-visible behaviour is byte-identical at every setting. A
	// cluster with Workers > 1 should be Closed when done.
	Workers int
	// Soft tunes soft-state nodes; Persist tunes persistent nodes.
	Soft    SoftConfig
	Persist epidemic.Config
}

// softVnodes is virtual nodes per soft member on the routing ring.
const softVnodes = 32

func (c ClusterConfig) normalized() ClusterConfig {
	if c.SoftNodes <= 0 {
		c.SoftNodes = 4
	}
	if c.PersistentNodes <= 0 {
		c.PersistentNodes = 32
	}
	return c
}

// Cluster is a full DataDroplets deployment over the simulator fabric:
// persistent nodes first, soft nodes on top, and a client router that
// sends every operation to the soft node responsible for its key.
type Cluster struct {
	Net *sim.Network
	cfg ClusterConfig

	softRing *dht.Ring
	Softs    map[node.ID]*SoftNode
	Pers     map[node.ID]*epidemic.Node

	softIDs []node.ID
	persIDs []node.ID

	// softAlive is the prebuilt liveness predicate for Route — built once
	// so the per-operation routing lookup allocates nothing.
	softAlive func(node.ID) bool

	// inflight tracks async handles by op ID; maxDeadline is the latest
	// deadline among them (WaitAll's termination bound).
	inflight    map[uint64]*Pending
	maxDeadline sim.Round

	// scenario, when installed, is the fault schedule stepped before
	// every fabric round (see SetScenario).
	scenario *sim.Scenario
}

// Errors returned by the synchronous client helpers.
var (
	ErrNotFound = errors.New("core: key not found")
	ErrTimeout  = errors.New("core: operation did not complete in time")
)

// NewCluster builds and boots a cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.normalized()
	c := &Cluster{
		Net:      sim.New(sim.Config{Seed: cfg.Seed, Loss: cfg.Loss, Workers: cfg.Workers}),
		cfg:      cfg,
		softRing: dht.NewRing(softVnodes),
		Softs:    make(map[node.ID]*SoftNode, cfg.SoftNodes),
		Pers:     make(map[node.ID]*epidemic.Node, cfg.PersistentNodes),
		inflight: make(map[uint64]*Pending),
	}
	// Persistent layer first: IDs 1..P.
	persPop := func() []node.ID { return c.persIDs }
	for i := 0; i < cfg.PersistentNodes; i++ {
		id := c.Net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			en := epidemic.New(id, rng, membership.NewUniformView(id, rng, persPop), cfg.Persist)
			c.Pers[id] = en
			return en
		})
		c.persIDs = append(c.persIDs, id)
	}
	// Soft layer: IDs P+1..P+S.
	for i := 0; i < cfg.SoftNodes; i++ {
		id := c.Net.Spawn(func(id node.ID, rng *rand.Rand) sim.Machine {
			sn := NewSoftNode(id, rng, membership.NewUniformView(id, rng, persPop), cfg.Soft)
			c.Softs[id] = sn
			return sn
		})
		c.softIDs = append(c.softIDs, id)
		c.softRing.Add(id)
	}
	c.softAlive = c.Net.Alive
	return c
}

// Route returns the soft node responsible for key (its ring successor
// among alive soft nodes). The first-alive successor walk replaces a
// LookupN materialisation that allocated a candidate slice plus a dedup
// set on every client operation; skipping the dedup does not change the
// answer, because duplicate owners en route cannot be the first alive
// one twice.
func (c *Cluster) Route(key string) *SoftNode {
	id := c.softRing.LookupFirst(node.HashKey(key), c.softAlive)
	if id == node.None {
		return nil
	}
	return c.Softs[id]
}

// AnySoft returns some alive soft node (for key-less operations).
func (c *Cluster) AnySoft() *SoftNode {
	for _, id := range c.softIDs {
		if c.Net.Alive(id) {
			return c.Softs[id]
		}
	}
	return nil
}

// Put writes a tuple and waits for the configured storage
// acknowledgements.
func (c *Cluster) Put(key string, value []byte, attrs map[string]float64, tags []string) error {
	p := c.PutAsync(key, value, attrs, tags)
	c.wait(p)
	return p.Err()
}

// Delete writes a tombstone.
func (c *Cluster) Delete(key string) error {
	p := c.DeleteAsync(key)
	c.wait(p)
	return p.Err()
}

// Get reads the latest version of key.
func (c *Cluster) Get(key string) (*tuple.Tuple, error) {
	p := c.GetAsync(key)
	c.wait(p)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return p.Tuple(), nil
}

// Scan performs an ordered range scan over the quantile attribute. A
// timed-out scan with partial results returns them without error, like
// it always has.
func (c *Cluster) Scan(attr string, lo, hi float64, maxHops int) ([]*tuple.Tuple, error) {
	p := c.ScanAsync(attr, lo, hi, maxHops)
	c.wait(p)
	if err := p.Err(); err != nil && len(p.Tuples()) == 0 {
		return nil, err
	}
	return p.Tuples(), nil
}

// Aggregate returns the continuous aggregate estimates for attr.
func (c *Cluster) Aggregate(attr string) (epidemic.AggResp, error) {
	p := c.AggregateAsync(attr)
	c.wait(p)
	return p.Agg(), p.Err()
}

// SetScenario installs a fault schedule: it is attached to the fabric's
// fault hook and stepped once before every engine-driven round, so
// node-state events (flaps, mass crashes) fire on schedule no matter
// which client path advances the cluster. Passing nil detaches the
// current scenario.
func (c *Cluster) SetScenario(s *sim.Scenario) {
	c.scenario = s
	if s != nil {
		s.Attach(c.Net)
	} else {
		c.Net.SetFault(nil)
	}
}

// Seed returns the deployment's configured random seed (fault schedules
// derive their own streams from it).
func (c *Cluster) Seed() int64 { return c.cfg.Seed }

// Step advances the whole deployment one round and resolves any async
// op handles that completed during it. External drivers must step the
// cluster through here (not Net.Step directly), or completions stay
// queued on their soft nodes until the next engine-driven round.
func (c *Cluster) Step() {
	if c.scenario != nil {
		c.scenario.Step()
	}
	c.Net.Step()
	c.reap()
}

// Run advances the whole deployment the given number of rounds (gossip
// epochs, repair cycles, overlay convergence), resolving any async op
// handles that complete along the way.
func (c *Cluster) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		c.Step()
	}
}

// Close releases the fabric's worker pool (no-op for serial clusters).
func (c *Cluster) Close() { c.Net.Close() }

// WipeSoftLayer destroys all soft-state metadata — C14's catastrophe.
func (c *Cluster) WipeSoftLayer() {
	for _, s := range c.Softs {
		s.Wipe()
	}
}

// RecoverSoftLayer rebuilds soft metadata from the persistent layer and
// returns the number of keys recovered across soft nodes. All soft-node
// recoveries run concurrently, sharing simulation rounds.
func (c *Cluster) RecoverSoftLayer(spread, limit, maxRounds int) (int, error) {
	ps := make([]*Pending, 0, len(c.softIDs))
	for _, id := range c.softIDs {
		s := c.Softs[id]
		opID, envs := s.Recover(spread, limit)
		ps = append(ps, c.track(s, OpRecover, "", opID, envs, maxRounds))
	}
	c.WaitAll()
	for _, p := range ps {
		if err := p.Err(); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, s := range c.Softs {
		total += len(s.Seq.Keys())
	}
	return total, nil
}

// PersistentHolders counts alive persistent nodes holding a live copy of
// key (oracle availability metric).
func (c *Cluster) PersistentHolders(key string) int {
	count := 0
	for id, en := range c.Pers {
		if !c.Net.Alive(id) {
			continue
		}
		if _, ok := en.St.Get(key); ok {
			count++
		}
	}
	return count
}

// PersistentIDs returns the persistent layer node IDs.
func (c *Cluster) PersistentIDs() []node.ID { return c.persIDs }

// SoftIDs returns the soft layer node IDs.
func (c *Cluster) SoftIDs() []node.ID { return c.softIDs }
