package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
	"datadroplets/internal/workload"
)

// The scenario clients: what issues a scenario run's operations.
// randomClient enters every op at a uniformly random alive node and
// keeps nothing; recordingClient (oracle mode, RecordHistory) is a fixed
// roster of sticky sessions that records every client-visible op in a
// workload.History for the consistency oracle. Both run only in the
// fabric's serial phase, between rounds.
type scenarioClient interface {
	write(ki int)               // issue a write of key ki
	read()                      // issue a read of a key the read distribution draws
	settle()                    // called after every net.Step
	report(res *ScenarioResult) // fill the client's result fields at the end of the run
}

// scenarioLoad is what both clients draw from and write through: the
// population, the probe's record of the latest version of every key, and
// the write and read streams. Reads draw from their own seeded stream so
// the write and fault streams are untouched by the read load.
type scenarioLoad struct {
	pop        *population[*epidemic.Node]
	probe      *scenarioProbe
	wrng, rrng *rand.Rand
	chooseKey  func() int // the read distribution, over rrng
	value      []byte
}

func newScenarioLoad(cfg ScenarioConfig, pop *population[*epidemic.Node], probe *scenarioProbe) (*scenarioLoad, error) {
	l := &scenarioLoad{
		pop:   pop,
		probe: probe,
		wrng:  rand.New(rand.NewSource(cfg.Seed ^ 0x77aa77aa)),
		rrng:  rand.New(rand.NewSource(cfg.Seed ^ 0x4ead4ead)),
		value: make([]byte, 64),
	}
	for i := range l.value {
		l.value[i] = byte(i)
	}
	var err error
	l.chooseKey, err = workload.NewKeyChooser(cfg.ReadDist, cfg.Keys, l.rrng)
	return l, err
}

// scenarioKey names key ki of a scenario's key space.
func scenarioKey(ki int) string { return fmt.Sprintf("sk-%06d", ki) }

// newWrite records the next version of key ki, written at origin, in the
// probe and returns the tuple carrying it.
func (l *scenarioLoad) newWrite(origin node.ID, ki int) *tuple.Tuple {
	l.probe.latest[ki]++
	l.probe.writer[ki] = origin
	return &tuple.Tuple{
		Key:     scenarioKey(ki),
		Value:   l.value,
		Attrs:   map[string]float64{"v": float64(l.wrng.Intn(1000))},
		Version: tuple.Version{Seq: l.probe.latest[ki], Writer: origin},
	}
}

func (l *scenarioLoad) emitWrite(origin node.ID, t *tuple.Tuple) {
	l.pop.net.Emit(origin, l.pop.machines[origin-1].Write(l.pop.net.Round(), t))
}

// randomAlive draws a uniformly random alive node; false when none is.
func randomAlive(net *sim.Network, rng *rand.Rand) (node.ID, bool) {
	alive := net.AliveIDs()
	if len(alive) == 0 {
		return node.None, false
	}
	return alive[rng.Intn(len(alive))], true
}

// randomClient is the unrecorded client: every op enters at a random
// alive node. A read changes no store; it only adds its probes, their
// TTL forwards and the replies to the run's traffic.
type randomClient struct{ *scenarioLoad }

func (c randomClient) write(ki int) {
	if origin, ok := randomAlive(c.pop.net, c.wrng); ok {
		c.emitWrite(origin, c.newWrite(origin, ki))
	}
}

func (c randomClient) read() {
	origin, ok := randomAlive(c.pop.net, c.rrng)
	if !ok {
		return
	}
	_, envs := c.pop.machines[origin-1].Lookup(scenarioKey(c.chooseKey()), nil, 3, 2)
	c.pop.net.Emit(origin, envs)
}

func (randomClient) settle()                {}
func (randomClient) report(*ScenarioResult) {}

// recordingClient is the oracle-mode client: scenarioClients sessions,
// each sticky to one origin node — a session guarantee is only
// meaningful against a stable session — recording every client-visible
// op with its written or observed version and its issue and completion
// rounds. A write completes when its origin hears the first storage
// acknowledgement, which also feeds the hint directory later reads are
// routed by. All recording state is touched only in the serial phase;
// the one machine-side hook, OnHint, appends to a per-origin queue that
// only that node's compute slot writes, and settle drains the queues in
// fixed order, so recording cannot perturb the trace or the digest.
type recordingClient struct {
	*scenarioLoad
	hist       *workload.History
	sessions   []node.ID            // session -> sticky origin node
	acks       []*ackQueue          // one per distinct origin, in session order
	openWrites map[writeRef]int     // in-flight write -> history index
	openReads  []*pendingRead       // issued reads awaiting replies
	hints      map[string][]node.ID // key -> acknowledged holders (at most maxHintHolders)
}

// readDeadline is the round budget a recorded read waits for its replies
// before resolving with whatever arrived (matching a client timeout).
const readDeadline = 12

// maxHintHolders caps the per-key acknowledged-holder directory feeding
// read hints.
const maxHintHolders = 4

// hintRec is one storage acknowledgement observed at a client origin.
type hintRec struct {
	key    string
	holder node.ID
	v      tuple.Version
}

// ackQueue collects one origin node's acknowledgements during the
// compute phase. Only that node's machine appends and only the serial
// phase drains, so no lock is needed.
type ackQueue struct{ recs []hintRec }

// writeRef identifies an in-flight recorded write (Seq is unique per
// key: the harness sequences writes itself).
type writeRef struct {
	ki  int
	seq uint64
}

// pendingRead tracks one recorded read awaiting replies.
type pendingRead struct {
	origin node.ID
	reqID  uint64
	opIdx  int
	issued sim.Round
	expect int
}

func newRecordingClient(l *scenarioLoad) *recordingClient {
	c := &recordingClient{
		scenarioLoad: l,
		hist:         workload.NewHistory(),
		sessions:     make([]node.ID, scenarioClients),
		openWrites:   make(map[writeRef]int),
		hints:        make(map[string][]node.ID),
	}
	n := len(l.pop.ids)
	for s := range c.sessions {
		origin := l.pop.ids[(s*n)/scenarioClients]
		c.sessions[s] = origin
		if en := l.pop.machines[origin-1]; en.OnHint == nil {
			q := &ackQueue{}
			c.acks = append(c.acks, q)
			en.OnHint = func(key string, holder node.ID, v tuple.Version) {
				q.recs = append(q.recs, hintRec{key: key, holder: holder, v: v})
			}
		}
	}
	return c
}

func (c *recordingClient) write(ki int) {
	session := c.wrng.Intn(scenarioClients)
	origin := c.sessions[session]
	if !c.pop.net.Alive(origin) {
		return // the session's origin is down: the client cannot issue
	}
	t := c.newWrite(origin, ki)
	c.openWrites[writeRef{ki: ki, seq: t.Version.Seq}] = c.hist.Append(workload.Op{Client: session,
		Kind: workload.OpWrite, Key: t.Key, Version: t.Version, Issued: c.pop.net.Round()})
	c.emitWrite(origin, t)
}

func (c *recordingClient) read() {
	session := c.rrng.Intn(scenarioClients)
	origin := c.sessions[session]
	if !c.pop.net.Alive(origin) {
		return
	}
	key := scenarioKey(c.chooseKey())
	now := c.pop.net.Round()
	opIdx := c.hist.Append(workload.Op{Client: session, Kind: workload.OpRead, Key: key, Issued: now})
	en := c.pop.machines[origin-1]
	reqID, envs := en.Lookup(key, c.hints[key], 3, 2)
	if len(envs) == 0 {
		// Local hit: resolved synchronously.
		st, _ := en.Read(reqID)
		c.finishRead(opIdx, st)
		en.ForgetRead(reqID)
		return
	}
	c.pop.net.Emit(origin, envs)
	c.openReads = append(c.openReads, &pendingRead{
		origin: origin, reqID: reqID, opIdx: opIdx, issued: now, expect: len(envs),
	})
}

// finishRead resolves a recorded read from its request state: the
// best-versioned reply (or the local hit), a miss when no reply carried
// a copy.
func (c *recordingClient) finishRead(opIdx int, st *epidemic.ReadState) {
	op := &c.hist.Ops[opIdx]
	op.Completed = c.pop.net.Round()
	if st != nil && st.Hit && st.Tuple != nil {
		op.Version = st.Tuple.Version
		if injectStaleReads && op.Version.Seq > 1 {
			op.Version.Seq-- // deliberately broken client (test hook)
		}
	} else {
		op.Miss = true
	}
}

// settle drains the ack queues (write completions and the hint
// directory) and resolves reads whose replies are all in or whose
// deadline elapsed, in fixed order.
func (c *recordingClient) settle() {
	now := c.pop.net.Round()
	for _, q := range c.acks {
		for _, rec := range q.recs {
			if holders := c.hints[rec.key]; !slices.Contains(holders, rec.holder) && len(holders) < maxHintHolders {
				c.hints[rec.key] = append(holders, rec.holder)
			}
			ki, ok := c.probe.keyIdx[rec.key]
			if !ok {
				continue
			}
			ref := writeRef{ki: ki, seq: rec.v.Seq}
			if idx, ok := c.openWrites[ref]; ok {
				c.hist.Ops[idx].Completed = now
				delete(c.openWrites, ref)
			}
		}
		q.recs = q.recs[:0]
	}
	kept := c.openReads[:0]
	for _, pr := range c.openReads {
		en := c.pop.machines[pr.origin-1]
		st, ok := en.Read(pr.reqID)
		if !ok {
			// Evicted from the read map (FIFO cap): never resolves.
			c.hist.Ops[pr.opIdx].Pending = true
			continue
		}
		if st.Replies >= pr.expect || now-pr.issued >= readDeadline {
			c.finishRead(pr.opIdx, st)
			en.ForgetRead(pr.reqID)
			continue
		}
		kept = append(kept, pr)
	}
	c.openReads = kept
}

// report hands the history and the end-state replica map to the result.
// Reads the run ended before resolving stay in the history as Pending —
// the oracle skips them (availability, not a session anomaly). Unacked
// writes keep Completed == 0 for the same reason: they never anchor a
// read-your-writes obligation.
func (c *recordingClient) report(res *ScenarioResult) {
	for _, pr := range c.openReads {
		c.hist.Ops[pr.opIdx].Pending = true
	}
	res.History = c.hist
	res.HistoryDigest = c.hist.Digest()
	res.Replicas = collectReplicas(c.pop, c.probe)
}
