// Package gossip implements the epidemic dissemination protocol at the
// heart of the persistent-state layer: rumor mongering in the
// infect-and-die style (every node relays a rumor exactly once, to
// fanout uniformly chosen peers less the one that pushed it there, or to
// none when that push already reached every peer),
// plus an optional anti-entropy digest exchange that repairs rumors lost
// to link failures and downtime.
//
// The fanout law is the paper's: relaying to ln(N)+c peers yields atomic
// infection with probability e^(-e^(-c)) (§III-A). Fanout is fractional —
// a fanout of 17.82 relays to 17 peers and to an 18th with probability
// 0.82 — so measured infection curves can be compared against the
// analytic form at every c, not only at integer fanouts.
package gossip

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
)

// Rumor is one disseminated item. Payload is opaque to the protocol; the
// persistent layer ships encoded tuples, experiments ship test markers.
type Rumor struct {
	ID      uint64
	Payload any
	Hops    int
}

// Protocol messages.
type (
	// RumorMsg pushes one rumor.
	RumorMsg struct{ Rumor Rumor }
	// DigestReq advertises the IDs of the rumors whose payloads the sender
	// still caches; the receiver answers with rumors absent from the
	// digest.
	DigestReq struct{ IDs []uint64 }
	// DigestResp carries rumors the requester was missing.
	DigestResp struct{ Rumors []Rumor }
)

// Config tunes a Disseminator.
type Config struct {
	// Fanout returns the current relay fanout. Fractional values are
	// honoured in expectation. Typically FanoutLnN(sizeEstimate, c).
	Fanout func() float64
	// OnDeliver is invoked exactly once per rumor ID on first receipt
	// (including the publisher's own rumors).
	OnDeliver func(r Rumor)
	// AntiEntropyEvery enables a digest pull every that many rounds
	// (0 disables). Anti-entropy is what recovers rumors lost while a
	// node was rebooting.
	AntiEntropyEvery int
	// Retention is how many rounds seen-markers are kept for duplicate
	// suppression, and the longest a rumor payload is kept for
	// anti-entropy replies (payloads also leave early, oldest first, once
	// they outgrow payloadCacheBytes). Zero means 100.
	Retention int
	// PayloadBytes sizes a payload for the payload cache's byte budget —
	// the one thing the otherwise payload-opaque protocol must be told.
	// Nil means every payload counts as 0 bytes, so only Retention bounds
	// the cache (test markers).
	PayloadBytes func(payload any) int
}

// payloadCacheBytes is the payload cache's budget. A node that hears
// every write must not also hold every write for Retention rounds: past
// the budget the oldest payloads go, and a peer that needed one of them
// is caught up by the persistent layer's range repair instead of by a
// digest pull. At most wire.MaxNodeFrame/2, so that a DigestResp
// carrying the whole cache still fits one frame. 8 MiB is about what a
// pull needs rather than what a frame allows: under a sustained write
// load most cached payloads are already superseded, and the cache is
// held on every node beside the store.
const payloadCacheBytes = 8 << 20

// FanoutLnN returns the paper's fanout law ln(N̂)+c over a size estimate.
func FanoutLnN(sizeEstimate func() float64, c float64) func() float64 {
	return func() float64 {
		n := sizeEstimate()
		if n < 2 {
			n = 2
		}
		f := math.Log(n) + c
		if f < 0 {
			f = 0
		}
		return f
	}
}

// FixedFanout returns a constant fanout function.
func FixedFanout(f float64) func() float64 {
	return func() float64 { return f }
}

// Disseminator is the per-node rumor-mongering state machine.
type Disseminator struct {
	self    node.ID
	rng     *rand.Rand
	sampler membership.Sampler
	cfg     Config

	// seen holds per-rumor receipt metadata. It is a specialised
	// open-addressed table rather than a built-in map: the duplicate
	// check on every receipt makes this the hottest lookup in the
	// fabric, and the flat pointer-free layout is invisible to the
	// garbage collector's scan phase.
	seen *seenTable
	// cache retains rumor payloads for anti-entropy replies, oldest
	// first from cacheHead on; it stays empty while anti-entropy is
	// disabled. First-seen rounds never decrease along it, so retention
	// expiry and budget eviction are the same pop-front. cacheBytes is
	// the PayloadBytes sum of what it holds, kept at or below budget
	// (payloadCacheBytes; in-package tests lower it between New and first
	// use).
	cache      []cachedRumor
	cacheHead  int
	cacheBytes int
	budget     int

	// expiry buckets rumor IDs by the round they were first seen so
	// pruning drains exactly one bucket per tick instead of walking the
	// whole seen map every round. Slot r%len(expiry) holds the IDs seen
	// in round r; with Retention+2 slots a bucket is drained strictly
	// before the slot is reused.
	expiry [][]uint64

	// peerBuf is the reused relay-target buffer (consumed within relay).
	peerBuf []node.ID

	// prunedTo is the highest seen-round whose expiry bucket has been
	// drained; prune catches up from here, so rounds skipped while the
	// node was down are still swept on the first post-revival tick.
	prunedTo sim.Round

	nextSeq uint64

	// Counters for the effort measurements of C2/C3.
	Relayed   int64 // rumor copies sent (dissemination effort)
	Delivered int64 // distinct rumors delivered locally
	Dupes     int64 // duplicate receipts suppressed
	// Evicted counts payloads the byte budget pushed out of the cache
	// before their retention ended.
	Evicted int64
}

// cachedRumor is one payload-cache entry: the rumor, the round it was
// first seen and its PayloadBytes size.
type cachedRumor struct {
	rumor Rumor
	at    sim.Round
	bytes int
}

var _ sim.Machine = (*Disseminator)(nil)

// New creates a Disseminator for self using the sampler for peer choice.
func New(self node.ID, rng *rand.Rand, sampler membership.Sampler, cfg Config) *Disseminator {
	if cfg.Retention <= 0 {
		cfg.Retention = 100
	}
	return &Disseminator{
		self:     self,
		rng:      rng,
		sampler:  sampler,
		cfg:      cfg,
		seen:     newSeenTable(),
		expiry:   make([][]uint64, cfg.Retention+2),
		prunedTo: -1, // round 0's bucket has not been drained yet
		budget:   payloadCacheBytes,
	}
}

// seenMeta is the per-rumor receipt record: the round (retention window)
// and the hop count (effort experiments). No pointers — see seen.
type seenMeta struct {
	at   sim.Round
	hops int32
}

// NewRumorID allocates a globally unique rumor ID from the node ID and a
// local sequence number.
func (d *Disseminator) NewRumorID() uint64 {
	d.nextSeq++
	return uint64(d.self)<<32 | d.nextSeq
}

// Publish starts disseminating a new rumor from this node and returns the
// rumor ID and the initial relay envelopes. The local OnDeliver fires
// immediately (the publisher is the first infected node).
func (d *Disseminator) Publish(now sim.Round, payload any) (uint64, []sim.Envelope) {
	r := Rumor{ID: d.NewRumorID(), Payload: payload, Hops: 0}
	d.markSeen(now, r)
	d.deliver(r)
	return r.ID, d.relay(r, node.None)
}

// Start implements sim.Machine. Rumor state survives reboots (it lives
// with the node's durable store); anti-entropy catches it up.
func (d *Disseminator) Start(now sim.Round) []sim.Envelope { return nil }

// Tick implements sim.Machine: prune retention and run anti-entropy.
func (d *Disseminator) Tick(now sim.Round) []sim.Envelope {
	d.prune(now)
	if d.cfg.AntiEntropyEvery <= 0 || now%sim.Round(d.cfg.AntiEntropyEvery) != 0 {
		return nil
	}
	peer := d.sampler.One()
	if peer == node.None {
		return nil
	}
	return []sim.Envelope{{To: peer, Msg: DigestReq{IDs: d.digest()}}}
}

// digest returns the IDs of the rumors whose payloads this node still
// caches, ascending so the wire content is deterministic for a given
// state. The responder can only answer from its own cache, so the
// digest costs O(cache), not O(seen): a rumor this node has seen but
// already evicted may come back as a counted duplicate, at most one
// cache's worth. While the budget does not bind the cache is exactly the
// seen set, so the digest is too.
func (d *Disseminator) digest() []uint64 {
	live := d.cache[d.cacheHead:]
	ids := make([]uint64, len(live))
	for i, c := range live {
		ids[i] = c.rumor.ID
	}
	slices.Sort(ids)
	return ids
}

// Handle implements sim.Machine.
func (d *Disseminator) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	switch m := msg.(type) {
	case RumorMsg:
		return d.receive(now, m.Rumor, from)
	case DigestReq:
		// IDs arrive ascending (the sender sorts for deterministic wire
		// content), so membership is a binary search — no per-request
		// map. A malformed unsorted digest only costs redundant rumor
		// resends; receive is idempotent. Only what the cache still holds
		// can be supplied.
		var missing []Rumor
		for _, c := range d.cache[d.cacheHead:] {
			if _, found := slices.BinarySearch(m.IDs, c.rumor.ID); !found {
				missing = append(missing, c.rumor)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		// By ID, not arrival order: the reply is a function of the two
		// nodes' state alone.
		slices.SortFunc(missing, func(a, b Rumor) int { return cmp.Compare(a.ID, b.ID) })
		return []sim.Envelope{{To: from, Msg: DigestResp{Rumors: missing}}}
	case DigestResp:
		var out []sim.Envelope
		for _, r := range m.Rumors {
			out = append(out, d.receive(now, r, node.None)...)
		}
		return out
	}
	return nil
}

// receive processes one rumor: first receipt delivers and relays
// (infect-and-die), duplicates are suppressed. pusher is the peer that
// relayed it here, node.None when it came by other means.
func (d *Disseminator) receive(now sim.Round, r Rumor, pusher node.ID) []sim.Envelope {
	if _, ok := d.seen.get(r.ID); ok {
		d.Dupes++
		return nil
	}
	r.Hops++
	d.markSeen(now, r)
	d.deliver(r)
	return d.relay(r, pusher)
}

// relay sends the rumor to fanout peers (fractional fanout in
// expectation), except the pusher, the peer that relayed it here: it did
// so on its own first receipt, a network delay ago, so its seen entry has
// a whole retention window left and a copy back can only be a duplicate.
// Targets are drawn as if every peer were eligible and the pusher is then
// dropped, not replaced, so the random draws — and the set of nodes each
// round infects — are those of plain infect-and-die.
//
// Nobody else is provably a holder. The publisher's and a digest
// responder's seen entries count from their own first receipt and may
// already have expired (a digest reply serves rumors up to a retention
// window old), so a copy to them can be a first receipt that spreads the
// rumor again; skipping those slowed the mass-crash scenario's recovery.
//
// The one exception is a population the fanout covers (a 3-node cluster
// at ln(N̂)+2): when the sampler draws from the whole population and
// even the whole part of the fanout returns every peer, the pusher's own
// relay went to everyone, a network delay ago, and a pushed first receipt
// relays to nobody. This assumes the pusher ran the same fanout over the
// same list; a push lost on the way is then left to the digest pull.
func (d *Disseminator) relay(r Rumor, pusher node.ID) []sim.Envelope {
	f := d.cfg.Fanout()
	if cs, ok := d.sampler.(membership.CoveringSampler); ok && pusher != node.None && cs.Covers(int(f)) {
		return nil
	}
	k := int(f)
	if frac := f - float64(k); frac > 0 && d.rng.Float64() < frac {
		k++
	}
	if k <= 0 {
		return nil
	}
	var peers []node.ID
	if bs, ok := d.sampler.(membership.BufferedSampler); ok {
		d.peerBuf = bs.SampleInto(k, d.peerBuf[:0])
		peers = d.peerBuf
	} else {
		peers = d.sampler.Sample(k)
	}
	n := len(peers)
	if slices.Contains(peers, pusher) { // sampled peers are distinct
		n--
	}
	if n == 0 {
		return nil
	}
	// Box the message once: the n envelopes share one immutable RumorMsg
	// (handlers receive it by value), so relaying costs one interface
	// allocation instead of one per peer. The out slice is deliberately a
	// fresh exact-capacity allocation, NOT a sim.EnvPool buffer: relay
	// fan-outs are large and pointer-dense, so a recycled pool keeps them
	// permanently live (the GC re-scans every interface slot each cycle)
	// and pays a typed clear per recycle — measured slower end-to-end than
	// letting the short-lived buffer die young. The pool pays off for
	// small fixed-size buffers like the walker hop path.
	msg := any(RumorMsg{Rumor: r})
	out := make([]sim.Envelope, 0, n)
	for _, p := range peers {
		if p != pusher {
			out = append(out, sim.Envelope{To: p, Msg: msg})
		}
	}
	d.Relayed += int64(len(out))
	return out
}

func (d *Disseminator) deliver(r Rumor) {
	d.Delivered++
	if d.cfg.OnDeliver != nil {
		d.cfg.OnDeliver(r)
	}
}

func (d *Disseminator) markSeen(now sim.Round, r Rumor) {
	d.seen.put(r.ID, seenMeta{at: now, hops: int32(r.Hops)})
	slot := int(uint64(now) % uint64(len(d.expiry)))
	d.expiry[slot] = append(d.expiry[slot], r.ID)
	if d.cfg.AntiEntropyEvery <= 0 {
		return
	}
	c := cachedRumor{rumor: r, at: now}
	if d.cfg.PayloadBytes != nil {
		c.bytes = d.cfg.PayloadBytes(r.Payload)
	}
	d.cache = append(d.cache, c)
	d.cacheBytes += c.bytes
	for d.cacheBytes > d.budget {
		d.popCache()
		d.Evicted++
	}
}

// popCache drops the oldest cached payload. The dead prefix it leaves is
// compacted away once it is half the slice: amortised O(1), and the
// slice stays within twice what the cache holds whether or not the
// budget ever binds.
func (d *Disseminator) popCache() {
	d.cacheBytes -= d.cache[d.cacheHead].bytes
	d.cache[d.cacheHead] = cachedRumor{} // release the payload
	d.cacheHead++
	if d.cacheHead*2 >= len(d.cache) {
		n := copy(d.cache, d.cache[d.cacheHead:])
		clear(d.cache[n:])
		d.cache = d.cache[:n]
		d.cacheHead = 0
	}
}

// prune drops seen-markers and cached payloads older than the retention
// window, bounding memory under sustained load. In the steady state it
// drains exactly the one bucket whose round just crossed the window, so
// the per-tick cost is proportional to the rumors expiring now, not to
// everything retained; after a downtime gap it catches up over every
// bucket that fell due while the node was dead, matching the deletions
// the old full-map sweep performed on the first post-revival tick.
func (d *Disseminator) prune(now sim.Round) {
	expired := now - sim.Round(d.cfg.Retention) - 1
	if expired < 0 || expired <= d.prunedTo {
		return
	}
	for d.cacheHead < len(d.cache) && d.cache[d.cacheHead].at <= expired {
		d.popCache()
	}
	from := d.prunedTo + 1
	d.prunedTo = expired
	if int(expired-from)+1 >= len(d.expiry) {
		// Gap of a full ring cycle or more: every bucket is overdue.
		for slot := range d.expiry {
			d.drainExpiry(slot, expired)
		}
		return
	}
	for r := from; r <= expired; r++ {
		d.drainExpiry(int(uint64(r)%uint64(len(d.expiry))), expired)
	}
}

// drainExpiry deletes a bucket's rumors whose seen round is at or before
// expired. The guard matters during post-downtime catch-up: deliveries
// run before the tick's prune, so a rumor received this round can share
// a slot with a bucket whose drain round passed while the node slept —
// it must survive until its own expiry, exactly as the full-map sweep's
// per-entry cutoff comparison kept it.
func (d *Disseminator) drainExpiry(slot int, expired sim.Round) {
	bucket := d.expiry[slot]
	kept := bucket[:0]
	for _, id := range bucket {
		if m, ok := d.seen.get(id); ok && m.at > expired {
			kept = append(kept, id)
			continue
		}
		d.seen.del(id)
	}
	d.expiry[slot] = kept
}

// Seen reports whether the rumor ID has been received (within retention).
func (d *Disseminator) Seen(id uint64) bool {
	_, ok := d.seen.get(id)
	return ok
}

// SeenLen returns how many rumor IDs are within retention.
func (d *Disseminator) SeenLen() int { return d.seen.len() }

// CacheBytes returns the PayloadBytes sum of the cached payloads.
func (d *Disseminator) CacheBytes() int { return d.cacheBytes }

// HopsOf returns the hop count recorded for a rumor, or -1 if unseen.
func (d *Disseminator) HopsOf(id uint64) int {
	m, ok := d.seen.get(id)
	if !ok {
		return -1
	}
	return int(m.hops)
}
