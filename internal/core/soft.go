// Package core assembles DataDroplets: the two-layer architecture of
// Figure 1. Soft-state nodes order client requests, cache tuples and
// keep metadata; the epidemic persistent layer below stores the data.
// The Cluster type wires both layers over the simulator fabric and is
// the substrate the public facade and every end-to-end experiment run
// on.
package core

import (
	"math/rand"
	"sort"

	"datadroplets/internal/cache"
	"datadroplets/internal/dht"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// OpKind distinguishes client operations tracked by a soft node.
type OpKind int

// Operation kinds.
const (
	OpPut OpKind = iota + 1
	OpGet
	OpDelete
	OpScan
	OpAgg
	OpRecover
)

// Op tracks one client operation through the soft-state layer.
type Op struct {
	ID      uint64
	Kind    OpKind
	Key     string
	Done    bool
	Err     string
	Tuple   *tuple.Tuple   // Get result
	Tuples  []*tuple.Tuple // Scan result
	Acks    int            // Put: storage acknowledgements received
	Agg     epidemic.AggResp
	Replies int
	// Deadline is the round at which the soft node expires the op itself
	// (0 = never). Expired reports that the deadline, not a reply, ended
	// the op; partial results (e.g. Scan tuples) are kept.
	Deadline sim.Round
	Expired  bool
	// Version is the version a Put or Delete was sequenced at; for a
	// Get, the target version whose arrival completes it early (zero
	// when the soft layer knows none).
	Version tuple.Version
	want    int // replies that complete the op
	// armed marks ops whose completion the cluster engine wants to hear
	// about; completing an armed op queues it (see TakeCompleted) instead
	// of calling into cluster state — Handle/Tick run inside the fabric's
	// compute phase, which the Machine contract confines to this node.
	armed bool
	// ackedBy dedupes StoreAck senders: WriteAcks counts distinct
	// replicas, and one replica storing successive pipelined versions
	// of a key must not count twice.
	ackedBy map[node.ID]bool
}

// Hint-miss fallback probing.
const (
	readProbes = 8 // persistent nodes sampled for a read with no usable directory hint
	readTTL    = 4 // hops each of them forwards the probe on a miss
)

// SoftConfig tunes a soft-state node.
type SoftConfig struct {
	// WriteAcks is how many persistent-layer storage acknowledgements
	// complete a Put. Zero means 1.
	WriteAcks int
	// CacheSize is the tuple cache capacity. Zero means 1024.
	CacheSize int
}

func (c SoftConfig) normalized() SoftConfig {
	if c.WriteAcks < 1 {
		c.WriteAcks = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

// SoftNode is one soft-state layer member: sequencer, directory, cache,
// and client-operation tracking. It is a sim.Machine like everything
// else; client calls are made directly on the responsible node by the
// Cluster router.
type SoftNode struct {
	Self node.ID
	rng  *rand.Rand
	cfg  SoftConfig

	Seq   *dht.Sequencer
	Dir   *dht.Directory
	Cache *cache.Cache

	// persistent supplies entry points into the persistent layer.
	persistent membership.Sampler

	nextOp uint64
	ops    map[uint64]*Op
	// completed queues armed ops that finished during Handle/Tick, in
	// completion order. The cluster engine drains it after each committed
	// round: op completion must not reach across nodes mid-round.
	completed []*Op
	// putsByKey matches StoreAcks to put ops: all pending writes per
	// key, in submission (= version) order, so pipelined writes to one
	// key each find their acknowledgement.
	putsByKey map[string][]uint64

	// LocalRead, when set, lets ReadExact (and so Get) answer from a
	// collocated persistent replica without a fabric round trip: a
	// replica tuple at exactly the version the sequencer knows as latest
	// is the reply a fabric read would complete on. Such a read completes
	// like a cache hit and caches nothing, since the replica already
	// holds the tuple; it is shared, not copied (sequenced tuples are
	// immutable). The live server wires this to its in-process store's
	// Peek and feeds Seq every version the node receives; the simulation
	// leaves it nil (soft and persistent nodes are distinct populations
	// there).
	LocalRead func(key string) (*tuple.Tuple, bool)

	// CacheHits, LocalReads and PersistentReads split Gets by where they
	// were answered: the cache, the collocated replica (LocalRead), or
	// the persistent layer over the fabric. C13 compares the first and
	// the last.
	CacheHits       int64
	LocalReads      int64
	PersistentReads int64
	// Rejected counts read replies whose tuple failed tuple.Validate;
	// such a reply counts as a miss.
	Rejected int64
}

var _ sim.Machine = (*SoftNode)(nil)

// NewSoftNode builds a soft-state node; persistent samples entry nodes of
// the persistent layer.
func NewSoftNode(self node.ID, rng *rand.Rand, persistent membership.Sampler, cfg SoftConfig) *SoftNode {
	cfg = cfg.normalized()
	return &SoftNode{
		Self:       self,
		rng:        rng,
		cfg:        cfg,
		Seq:        dht.NewSequencer(self),
		Dir:        dht.NewDirectory(0),
		Cache:      cache.New(cfg.CacheSize),
		persistent: persistent,
		ops:        make(map[uint64]*Op),
		putsByKey:  make(map[string][]uint64),
	}
}

func (s *SoftNode) newOp(kind OpKind, key string) *Op {
	s.nextOp++
	op := &Op{ID: uint64(s.Self)<<32 | s.nextOp, Kind: kind, Key: key}
	s.ops[op.ID] = op
	return op
}

// Op returns the state of an operation.
func (s *SoftNode) Op(id uint64) (*Op, bool) {
	op, ok := s.ops[id]
	return op, ok
}

// complete marks an op done exactly once. Armed ops are queued for the
// cluster engine to collect once the round has committed; every path that
// finishes an op funnels through here so the engine sees each completion.
func (s *SoftNode) complete(op *Op) {
	if op.Done {
		return
	}
	op.Done = true
	if op.armed {
		s.completed = append(s.completed, op)
	}
}

// Arm attaches a deadline to a pending op and subscribes the cluster
// engine to its completion. From then on the soft node owns the op's
// lifetime: when a reply completes it — or the deadline passes — the op
// is queued exactly once for TakeCompleted. Returns false when the op is
// unknown or already done.
func (s *SoftNode) Arm(id uint64, deadline sim.Round) bool {
	op, ok := s.ops[id]
	if !ok || op.Done {
		return false
	}
	op.Deadline = deadline
	op.armed = true
	return true
}

// TakeCompleted returns the armed ops that completed since the last call
// and clears the queue. The cluster engine calls it between rounds; the
// returned ops are in completion order, which is deterministic for a
// given seed.
func (s *SoftNode) TakeCompleted() []*Op {
	if len(s.completed) == 0 {
		return nil
	}
	out := s.completed
	s.completed = nil
	return out
}

// expire fails every live op whose deadline has passed, in ID order so
// runs with equal seeds stay byte-identical.
func (s *SoftNode) expire(now sim.Round) {
	var due []uint64
	for id, op := range s.ops {
		if !op.Done && op.Deadline > 0 && now >= op.Deadline {
			due = append(due, id)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, id := range due {
		op := s.ops[id]
		op.Expired = true
		s.complete(op)
	}
}

// ForgetOp releases a completed operation.
func (s *SoftNode) ForgetOp(id uint64) {
	op, ok := s.ops[id]
	if !ok {
		return
	}
	if op.Kind == OpPut || op.Kind == OpDelete {
		ids := s.putsByKey[op.Key]
		for i, pid := range ids {
			if pid == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(s.putsByKey, op.Key)
		} else {
			s.putsByKey[op.Key] = ids
		}
	}
	delete(s.ops, id)
}

// Put sequences a write and hands it to the persistent layer for
// epidemic dissemination. Returns the op ID and envelopes to emit. It
// takes ownership of value, attrs and tags: they become the one tuple
// that the cache, the rumor and every replica's store then share, so a
// caller that keeps using its own memory copies before calling.
func (s *SoftNode) Put(now sim.Round, key string, value []byte, attrs map[string]float64, tags []string, deleted bool) (uint64, []sim.Envelope) {
	op := s.newOp(OpPut, key)
	if deleted {
		op.Kind = OpDelete
	}
	version := s.Seq.Next(key)
	op.Version = version
	t := &tuple.Tuple{Key: key, Value: value, Attrs: attrs, Tags: tags, Version: version, Deleted: deleted}
	if err := t.Validate(); err != nil {
		op.Err = err.Error()
		s.complete(op)
		return op.ID, nil
	}
	s.Cache.Put(t)
	s.putsByKey[key] = append(s.putsByKey[key], op.ID)
	entry := s.persistent.One()
	if entry == node.None {
		op.Err = "no persistent layer entry point"
		s.complete(op)
		return op.ID, nil
	}
	return op.ID, []sim.Envelope{{To: entry, Msg: epidemic.WriteCmd{Tuple: t, ReplyTo: s.Self}}}
}

// Get serves a read. A tuple ReadExact finds completes the read at
// once; anything else reads through the persistent layer: directory
// hints, with random probing as fallback.
func (s *SoftNode) Get(now sim.Round, key string) (uint64, []sim.Envelope) {
	op := s.newOp(OpGet, key)
	if t, ok := s.ReadExact(key); ok {
		if t.Deleted {
			op.Err = "not found"
		} else {
			op.Tuple = t
		}
		s.complete(op)
		return op.ID, nil
	}
	latest, _ := s.Seq.Latest(key)
	s.PersistentReads++
	hints := s.Dir.Hints(key)
	probes := s.persistent.Sample(readProbes)
	var envs []sim.Envelope
	seen := map[node.ID]bool{}
	for _, h := range hints {
		if !seen[h] {
			seen[h] = true
			envs = append(envs, sim.Envelope{To: h, Msg: epidemic.ReadReq{
				Key: key, ReqID: op.ID, Origin: s.Self, TTL: 0,
			}})
		}
	}
	for _, p := range probes {
		if !seen[p] {
			seen[p] = true
			envs = append(envs, sim.Envelope{To: p, Msg: epidemic.ReadReq{
				Key: key, ReqID: op.ID, Origin: s.Self, TTL: readTTL,
			}})
		}
	}
	op.want = len(envs)
	op.Version = latest
	if op.want == 0 {
		op.Err = "not found"
		s.complete(op)
	}
	return op.ID, envs
}

// ReadExact is the soft layer's version-exact read, made without an op:
// when the sequencer knows key's latest version, the tuple at exactly
// that version from the cache, else from the collocated replica — the
// very rule a fabric read applies to its replies. ok is false when only
// an older copy, or none, is at hand: the read must go through the
// persistent layer (Get). The tuple is shared, not copied, and may be a
// tombstone, which reads as not found. Get's own fast branch is this
// call; the live server calls it first, so a read it answers costs no
// op at all.
func (s *SoftNode) ReadExact(key string) (*tuple.Tuple, bool) {
	latest, known := s.Seq.Latest(key)
	if !known {
		return nil, false
	}
	if t, ok := s.Cache.Get(key, latest); ok {
		s.CacheHits++
		return t, true
	}
	if s.LocalRead != nil {
		if t, ok := s.LocalRead(key); ok && t.Version == latest {
			s.LocalReads++
			return t, true
		}
	}
	return nil, false
}

// Scan launches an ordered range scan through a persistent entry node.
func (s *SoftNode) Scan(attr string, lo, hi float64, maxHops int) (uint64, []sim.Envelope) {
	op := s.newOp(OpScan, "")
	entry := s.persistent.One()
	if entry == node.None {
		op.Err = "no persistent layer entry point"
		s.complete(op)
		return op.ID, nil
	}
	return op.ID, []sim.Envelope{{To: entry, Msg: epidemic.ScanReq{
		Attr: attr, Lo: lo, Hi: hi, ReqID: op.ID, Origin: s.Self,
		HopsLeft: maxHops, Seeking: true,
	}}}
}

// Aggregate queries a persistent node's continuous aggregates.
func (s *SoftNode) Aggregate(attr string) (uint64, []sim.Envelope) {
	op := s.newOp(OpAgg, attr)
	entry := s.persistent.One()
	if entry == node.None {
		op.Err = "no persistent layer entry point"
		s.complete(op)
		return op.ID, nil
	}
	return op.ID, []sim.Envelope{{To: entry, Msg: epidemic.AggReq{Attr: attr, ReqID: op.ID}}}
}

// Recover rebuilds soft state from the persistent layer after a wipe
// (§II: "metadata can be reconstructed from the data reliably stored at
// the underlying persistent-state layer"). It queries `spread` persistent
// nodes and folds their version reports into the sequencer and directory.
func (s *SoftNode) Recover(spread, limit int) (uint64, []sim.Envelope) {
	op := s.newOp(OpRecover, "")
	peers := s.persistent.Sample(spread)
	if len(peers) == 0 {
		op.Err = "no persistent layer entry point"
		s.complete(op)
		return op.ID, nil
	}
	op.want = len(peers)
	envs := make([]sim.Envelope, 0, len(peers))
	for _, p := range peers {
		envs = append(envs, sim.Envelope{To: p, Msg: epidemic.RecoverReq{ReqID: op.ID, Limit: limit}})
	}
	return op.ID, envs
}

// Wipe destroys all soft state — the catastrophic failure of C14.
func (s *SoftNode) Wipe() {
	s.Seq.Wipe()
	s.Dir.Wipe()
	s.Cache.Wipe()
}

// Start implements sim.Machine.
func (s *SoftNode) Start(now sim.Round) []sim.Envelope { return nil }

// Tick implements sim.Machine: expire ops whose deadline has passed, so
// the node can carry hundreds of pending ops without a driver counting
// rounds on its behalf.
func (s *SoftNode) Tick(now sim.Round) []sim.Envelope {
	s.expire(now)
	return nil
}

// Handle implements sim.Machine.
func (s *SoftNode) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	switch m := msg.(type) {
	case epidemic.StoreAck:
		s.Dir.AddHint(m.Key, from)
		// An ack for version V also acknowledges every older pending
		// write to the key: the stored newer version durably supersedes
		// them. Copy the slice — completion callbacks ForgetOp, which
		// mutates putsByKey.
		ids := append([]uint64(nil), s.putsByKey[m.Key]...)
		for _, opID := range ids {
			op, live := s.ops[opID]
			if !live || op.Done {
				continue
			}
			if m.Version.Less(op.Version) || op.ackedBy[from] {
				continue
			}
			if op.ackedBy == nil {
				op.ackedBy = make(map[node.ID]bool, s.cfg.WriteAcks)
			}
			op.ackedBy[from] = true
			op.Acks++
			if op.Acks >= s.cfg.WriteAcks {
				s.complete(op)
			}
		}
	case epidemic.ReadResp:
		s.handleReadResp(m, from)
	case epidemic.ScanResp:
		if op, ok := s.ops[m.ReqID]; ok && !op.Done {
			op.Tuples = append(op.Tuples, m.Tuples...)
			if m.Done {
				op.Tuples = dedupeByKey(op.Tuples)
				s.complete(op)
			}
		}
	case epidemic.AggResp:
		if op, ok := s.ops[m.ReqID]; ok && !op.Done {
			op.Agg = m
			if !m.Known {
				op.Err = "attribute not aggregated"
			}
			s.complete(op)
		}
	case epidemic.RecoverResp:
		if op, ok := s.ops[m.ReqID]; ok && !op.Done {
			for key, v := range m.Versions {
				if v.Seq > tuple.MaxSeq {
					continue // above the ceiling: never a floor
				}
				s.Seq.Observe(key, v)
				s.Dir.AddHint(key, from)
			}
			op.Replies++
			if op.Replies >= op.want {
				s.complete(op)
			}
		}
	}
	return nil
}

// handleReadResp folds a persistent-layer read reply into its op. A
// reply for an op that already resolved is dropped.
func (s *SoftNode) handleReadResp(m epidemic.ReadResp, from node.ID) {
	op, ok := s.ops[m.ReqID]
	if !ok || op.Done {
		return
	}
	op.Replies++
	if m.Tuple != nil && m.Tuple.Validate() != nil {
		s.Rejected++
		m.Tuple = nil
	}
	if m.Tuple != nil {
		s.Seq.Observe(op.Key, m.Tuple.Version)
		s.Dir.AddHint(op.Key, from)
		if op.Tuple == nil || op.Tuple.Version.Less(m.Tuple.Version) {
			op.Tuple = m.Tuple
		}
		// Version-exact completion: if the soft layer knows the latest
		// version, only that version completes the read immediately.
		if !op.Version.IsZero() && m.Tuple.Version == op.Version {
			s.finishGet(op)
			return
		}
	}
	if op.Replies >= op.want {
		// All probes reported: best effort result.
		s.finishGet(op)
	}
}

// dedupeByKey collapses replica duplicates in scan results, keeping the
// newest version of each key, sorted by key.
func dedupeByKey(ts []*tuple.Tuple) []*tuple.Tuple {
	best := make(map[string]*tuple.Tuple, len(ts))
	for _, t := range ts {
		if cur, ok := best[t.Key]; !ok || cur.Version.Less(t.Version) {
			best[t.Key] = t
		}
	}
	out := make([]*tuple.Tuple, 0, len(best))
	for _, t := range best {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (s *SoftNode) finishGet(op *Op) {
	if op.Tuple == nil || op.Tuple.Deleted {
		op.Tuple = nil
		op.Err = "not found"
		s.complete(op)
		return
	}
	// The cache and the completed op share the tuple from here on; the
	// copy a client may write to is made where the read leaves the
	// system.
	s.Cache.Put(op.Tuple)
	s.complete(op)
}
