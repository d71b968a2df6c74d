// Package experiments regenerates every figure/table of the reproduction
// (F1 plus C1–C14, defined in docs/DESIGN.md §2). Each driver is pure Go over
// the simulator substrate and returns text/CSV tables; cmd/ddbench and
// the repository-root benchmarks are thin wrappers around this package.
//
// Drivers accept a Scale knob: 1.0 runs at paper scale (tens of
// thousands of simulated nodes for the dissemination experiments), while
// small fractions produce quick smoke versions for CI. Scaling changes
// population sizes and trial counts, never protocol parameters.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"datadroplets/internal/gossip"
	"datadroplets/internal/membership"
	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
)

// Params configures a run.
type Params struct {
	// Scale multiplies population sizes and trial counts (1.0 = paper
	// scale). Values below ~0.05 are clamped per experiment to keep the
	// statistics meaningful.
	Scale float64
	// Seed makes the run reproducible.
	Seed int64
}

func (p Params) normalized() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// scaled returns max(min, round(base*scale)).
func (p Params) scaled(base, min int) int {
	n := int(float64(base) * p.Scale)
	if n < min {
		n = min
	}
	return n
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Runner is an experiment driver.
type Runner func(Params) *Result

// registry maps experiment IDs to drivers. Populated by init functions
// in the per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// F1 first, then C1..C14 numerically.
		if out[i][0] != out[j][0] {
			return out[i][0] == 'F'
		}
		var a, b int
		fmt.Sscanf(out[i][1:], "%d", &a)
		fmt.Sscanf(out[j][1:], "%d", &b)
		return a < b
	})
	return out
}

// Run executes one experiment.
func Run(id string, p Params) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(p.normalized()), nil
}

// population is what every simulator harness here is built on: a
// fabric, the dense list of every node spawned on it (what each node's
// uniform membership view samples), and the machines — machines[i] runs
// node ids[i] = i+1. join is the one factory behind the initial nodes and
// behind mass-join and churn spawns, so a node that joins mid-run is
// built and listed exactly like the first ones.
type population[M sim.Machine] struct {
	net      *sim.Network
	ids      []node.ID
	machines []M
	newNode  func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) M
}

// newPopulation spawns n nodes on a new fabric. newNode builds node id's
// machine from the node's seeded rng and view, which returns a new
// uniform view of the population per call (a T-Man node runs one per
// ordering).
func newPopulation[M sim.Machine](fabric sim.Config, n int,
	newNode func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) M) *population[M] {
	p := &population[M]{net: sim.New(fabric), ids: make([]node.ID, 0, n), machines: make([]M, 0, n), newNode: newNode}
	for range n {
		p.net.Spawn(p.join)
	}
	return p
}

// join builds, lists and returns the machine of a node the fabric
// spawns. No machine samples its view before its first Tick, so the node
// may be listed after its machine is built.
func (p *population[M]) join(id node.ID, rng *rand.Rand) sim.Machine {
	m := p.newNode(id, rng, func() *membership.UniformView {
		return membership.NewUniformView(id, rng, func() []node.ID { return p.ids })
	})
	p.machines = append(p.machines, m)
	p.ids = append(p.ids, id)
	return m
}

// churn steps the population rounds rounds under a churn process
// seeded with seed.
func (p *population[M]) churn(cc sim.ChurnConfig, seed int64, rounds int) {
	ch := sim.NewChurner(p.net, cc, seed)
	for range rounds {
		ch.Step()
		p.net.Step()
	}
}

// gossipPopulation is the dissemination experiments' fixture: n
// Disseminators relaying to a fixed fanout.
func gossipPopulation(n int, seed int64, fanout float64) *population[*gossip.Disseminator] {
	cfg := gossip.Config{Fanout: gossip.FixedFanout(fanout)}
	return newPopulation(sim.Config{Seed: seed}, n, func(id node.ID, rng *rand.Rand, view func() *membership.UniformView) *gossip.Disseminator {
		return gossip.New(id, rng, view(), cfg)
	})
}

// disseminate publishes one rumor from node 1 and drains the network.
// Returns the infected count and total relayed copies.
func disseminate(p *population[*gossip.Disseminator], maxRounds int) (infected int, relayed int64) {
	id, envs := p.machines[0].Publish(p.net.Round(), "x")
	p.net.Emit(p.ids[0], envs)
	p.net.Quiesce(maxRounds)
	for _, d := range p.machines {
		if d.Seen(id) {
			infected++
		}
		relayed += d.Relayed
	}
	return infected, relayed
}
