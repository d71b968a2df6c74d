// Package membership provides the peer-sampling service the epidemic
// layer builds on: every protocol that "picks fanout random peers" takes
// a Sampler.
//
// UniformView, the one implementation, samples from a directly
// maintained population list. It matches the analytical model behind the
// paper's fanout math (uniform random peer selection) and is what the
// experiments and the live server use. The protocols see only the
// Sampler interface, so a partial-view sampler (the shuffle-based
// protocols of the paper's references [19]-[21]) could stand in without
// touching them.
package membership

import (
	"math/rand"
	"slices"

	"datadroplets/internal/node"
)

// Sampler yields peers for gossip exchanges.
type Sampler interface {
	// Sample returns up to k distinct peers, never including the local
	// node. Fewer than k are returned only when the view is smaller.
	Sample(k int) []node.ID
	// One returns a single peer, or node.None if the view is empty.
	One() node.ID
}

// BufferedSampler is an optional Sampler extension for hot paths: the
// draw appends into a caller-owned buffer instead of allocating. The
// peer sequence and randomness consumption are identical to Sample.
type BufferedSampler interface {
	// SampleInto appends up to k distinct peers to buf and returns it.
	SampleInto(k int, buf []node.ID) []node.ID
}

// CoveringSampler is an optional Sampler extension for samplers that draw
// from the whole population, the same list on every node (UniformView; a
// partial view, different on every node, could not implement it). A node
// can then tell from its own view what any peer's draw of k reaches.
type CoveringSampler interface {
	// Covers reports whether a draw of k peers always returns every peer.
	Covers(k int) bool
}

// UniformView is a Sampler over an externally maintained population list.
// The provider is queried on every sample so churn experiments can hand it
// the simulator's population (stale entries included — messages to dead
// nodes are simply lost, as in a real deployment with stale views).
type UniformView struct {
	self     node.ID
	rng      *rand.Rand
	provider func() []node.ID

	// scratch records virtual Fisher-Yates displacements so a sample
	// costs O(k) regardless of population size (see sampleInto).
	scratch []displaced
	oneBuf  [1]node.ID
}

// displaced is one virtually swapped pool entry: the population value at
// pos is overridden by val for the remainder of the current draw.
type displaced struct {
	pos int
	val node.ID
}

var (
	_ Sampler         = (*UniformView)(nil)
	_ CoveringSampler = (*UniformView)(nil)
)

// NewUniformView builds a sampler for self over the provider's list.
func NewUniformView(self node.ID, rng *rand.Rand, provider func() []node.ID) *UniformView {
	return &UniformView{self: self, rng: rng, provider: provider}
}

// Sample draws up to k distinct peers uniformly without replacement.
func (u *UniformView) Sample(k int) []node.ID {
	all := u.provider()
	if k <= 0 || len(all) == 0 {
		return nil
	}
	return u.sampleInto(all, k, make([]node.ID, 0, k))
}

// SampleInto implements BufferedSampler.
func (u *UniformView) SampleInto(k int, buf []node.ID) []node.ID {
	all := u.provider()
	if k <= 0 || len(all) == 0 {
		return buf
	}
	return u.sampleInto(all, k, buf)
}

// Covers implements CoveringSampler: every peer is drawn once k reaches
// the population less self. Self is looked for only when k is one short of
// the list, so the check is O(1) at any fanout well below N.
func (u *UniformView) Covers(k int) bool {
	all := u.provider()
	switch {
	case k >= len(all):
		return true
	case k < len(all)-1:
		return false
	}
	return slices.Contains(all, u.self)
}

// sampleInto performs a partial Fisher-Yates shuffle over the population
// WITHOUT copying it: the handful of displaced entries are tracked in
// u.scratch (at most k+1 of them — one per loop iteration), and every
// position read consults the displacement list first. The sequence of
// rng draws and the returned peers are bit-identical to shuffling a full
// copy, which the simulator's determinism contract depends on, but the
// cost drops from O(N) per draw to O(k²) with k ≤ fanout — the
// difference between 32-node benchmarks and the paper's 10⁴–10⁵ regime.
func (u *UniformView) sampleInto(all []node.ID, k int, out []node.ID) []node.ID {
	u.scratch = u.scratch[:0]
	n := len(all)
	for i := 0; i < n && len(out) < k; i++ {
		j := i + u.rng.Intn(n-i)
		// vi = pool[j] under the displacements accumulated so far.
		vi := all[j]
		for _, d := range u.scratch {
			if d.pos == j {
				vi = d.val
				break
			}
		}
		// pool[j] = pool[i] (position i is never read again: future
		// iterations only touch positions > i).
		vj := all[i]
		for _, d := range u.scratch {
			if d.pos == i {
				vj = d.val
				break
			}
		}
		found := false
		for idx := range u.scratch {
			if u.scratch[idx].pos == j {
				u.scratch[idx].val = vj
				found = true
				break
			}
		}
		if !found {
			u.scratch = append(u.scratch, displaced{pos: j, val: vj})
		}
		if vi == u.self {
			continue
		}
		out = append(out, vi)
	}
	return out
}

// One returns a single uniform peer. The draw reuses a fixed buffer, so
// the scheduler's hottest sampling call allocates nothing.
func (u *UniformView) One() node.ID {
	all := u.provider()
	if len(all) == 0 {
		return node.None
	}
	s := u.sampleInto(all, 1, u.oneBuf[:0])
	if len(s) == 0 {
		return node.None
	}
	return s[0]
}
