package histogram

import (
	"math/rand"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
)

// Estimator is the per-node gossip distribution-estimation machine. Each
// epoch it seeds a KMV sketch from the node's local tuples and push-pulls
// the sketch with one random peer per round; sketches converge to the
// global sketch in O(log N) rounds, after which Histogram() yields this
// node's estimate of the global attribute distribution.
//
// Epochs restart the sketch with a fresh hash salt so the estimate tracks
// a changing store and recovers mass lost to permanently departed nodes —
// the churn adaptation §III-B1 asks for.
type Estimator struct {
	self    node.ID
	rng     *rand.Rand
	sampler membership.Sampler
	cfg     EstimatorConfig

	epoch  uint64
	sketch *KMV
	// converged keeps the last full-epoch sketch so queries during the
	// early rounds of a new epoch still answer from settled data.
	settled *KMV
}

// EstimatorConfig tunes the estimator.
type EstimatorConfig struct {
	// K is the sketch size (accuracy ~ 1/sqrt(K-2)). Zero means 256.
	K int
	// EpochLen is the number of rounds per estimation epoch. Zero means 30.
	EpochLen int
	// Local enumerates the node's current (key, value) pairs for the
	// attribute being estimated. Called at each epoch start.
	Local func(emit func(key string, value float64))
	// Buckets is the histogram resolution. Zero means 20.
	Buckets int
}

// Sketch exchange messages.
//
// Entries is an immutable shared buffer: the sender publishes its
// sketch's own backing array (KMV.SharedEntries) rather than a copy, and
// copy-on-writes before its next mutation. Receivers must only read it —
// MergeEntries and FromEntries honour that contract.
type (
	// SketchPush carries one node's sketch; the receiver merges and
	// replies with its own (push-pull doubles convergence speed).
	SketchPush struct {
		Epoch   uint64
		K       int
		Entries []KMVEntry
	}
	// SketchReply is the pull half of the exchange.
	SketchReply struct {
		Epoch   uint64
		K       int
		Entries []KMVEntry
	}
)

var _ sim.Machine = (*Estimator)(nil)

// NewEstimator builds the machine.
func NewEstimator(self node.ID, rng *rand.Rand, sampler membership.Sampler, cfg EstimatorConfig) *Estimator {
	if cfg.K == 0 {
		cfg.K = 256
	}
	if cfg.EpochLen == 0 {
		cfg.EpochLen = 30
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 20
	}
	// The sketch exists from construction so queries are safe before
	// Start runs (composite nodes consult the histogram while wiring).
	return &Estimator{self: self, rng: rng, sampler: sampler, cfg: cfg, sketch: NewKMV(cfg.K)}
}

// Start implements sim.Machine: a booting node joins the current epoch
// with only its local data; gossip refills the rest within the epoch.
func (e *Estimator) Start(now sim.Round) []sim.Envelope {
	e.reseed(e.epochFor(now))
	return nil
}

func (e *Estimator) epochFor(now sim.Round) uint64 {
	return uint64(now) / uint64(e.cfg.EpochLen)
}

// reseed begins a new epoch: keep the finished sketch for queries, rebuild
// the working sketch from local data under the epoch's salt.
func (e *Estimator) reseed(epoch uint64) {
	if e.sketch != nil {
		e.settled = e.sketch
	}
	e.epoch = epoch
	e.sketch = NewKMV(e.cfg.K)
	if e.cfg.Local != nil {
		e.cfg.Local(func(key string, value float64) {
			e.sketch.Add(key, epoch, value)
		})
	}
}

// Tick implements sim.Machine.
func (e *Estimator) Tick(now sim.Round) []sim.Envelope {
	if ep := e.epochFor(now); ep != e.epoch {
		e.reseed(ep)
	}
	peer := e.sampler.One()
	if peer == node.None {
		return nil
	}
	return []sim.Envelope{{To: peer, Msg: SketchPush{
		Epoch: e.epoch, K: e.sketch.K(), Entries: e.sketch.SharedEntries(),
	}}}
}

// Handle implements sim.Machine.
func (e *Estimator) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	switch m := msg.(type) {
	case SketchPush:
		if m.Epoch != e.epoch {
			return nil // stale or future epoch; ignore
		}
		// Share-then-merge: the reply carries the pre-merge sketch, and
		// the merge copy-on-writes, leaving the shared buffer frozen.
		reply := SketchReply{Epoch: e.epoch, K: e.sketch.K(), Entries: e.sketch.SharedEntries()}
		e.sketch.MergeEntries(m.Entries)
		return []sim.Envelope{{To: from, Msg: reply}}
	case SketchReply:
		if m.Epoch == e.epoch {
			e.sketch.MergeEntries(m.Entries)
		}
	}
	return nil
}

// DistinctEstimate returns the estimated number of distinct tuples
// system-wide, from the most settled sketch available.
func (e *Estimator) DistinctEstimate() float64 {
	return e.best().DistinctEstimate()
}

// Histogram returns the node's current estimate of the global attribute
// distribution, or nil if no data has been observed yet.
func (e *Estimator) Histogram() *EquiDepth {
	return BuildEquiDepth(e.best().Values(), e.cfg.Buckets)
}

func (e *Estimator) best() *KMV {
	// Prefer the settled previous-epoch sketch unless the working sketch
	// has accumulated at least as much evidence.
	if e.settled != nil && e.settled.Len() > e.sketch.Len() {
		return e.settled
	}
	return e.sketch
}
