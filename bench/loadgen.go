package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/wire"
)

const (
	// closedInFlight is the closed-loop phase's depth per connection.
	closedInFlight = 32
	// clientWindow is the ddclient pipeline window; it equals the
	// server's default per-connection window, so Do blocks locally
	// before it would block on the server.
	clientWindow = 64
	// lateAfter is how far past its due time an op may be issued before
	// it counts as late, and blockedAfter how long a Do call may take
	// before it counts as blocked on a full window.
	lateAfter    = time.Millisecond
	blockedAfter = 100 * time.Microsecond
	// maxLag voids a window: once the generator is this far behind its
	// schedule the offered load is no longer the stated one.
	maxLag = time.Second
)

// issued is one operation between the sender and the collector.
type issued struct {
	f       *ddclient.Future
	id      uint64
	kind    opKind
	key     int
	due     int64 // ns since epoch; latency counts from here
	enter   int64 // Do entered
	ret     int64 // Do returned
	settled chan int64
}

// phaseRec is one connection's record of one phase. It is written by
// that connection's sender and collector only and read after both ended.
type phaseRec struct {
	start     int64 // ns since epoch
	windowLen int64
	windows   int

	lat       [nKinds][][]int64 // [kind][window by due time] latency ns
	completed []int64           // successful completions per window, by completion time
	lag       []int64           // worst issue lag per window
	lateness  []int64           // enter - due of every op of an open-loop phase

	attempted, failed int64
	late, blocked     int64
	doNs              int64
	firstFailure      string
}

func newPhaseRec(start, windowLen int64, windows, expectOps int) *phaseRec {
	r := &phaseRec{start: start, windowLen: windowLen, windows: windows}
	for k := range r.lat {
		r.lat[k] = make([][]int64, windows)
	}
	r.completed = make([]int64, windows)
	r.lag = make([]int64, windows)
	r.lateness = make([]int64, 0, expectOps)
	return r
}

// window maps a time to its window, or -1 outside the phase.
func (r *phaseRec) window(t int64) int {
	if t < r.start {
		return -1
	}
	w := int((t - r.start) / r.windowLen)
	if w >= r.windows {
		return -1
	}
	return w
}

func (r *phaseRec) fail(msg string) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = msg
	}
}

// loadConn is one pipelined client connection with its op stream.
type loadConn struct {
	idx    int
	cl     *ddclient.Client
	stream *opStream
	ks     *keyset
	epoch  time.Time
	tr     *tracer
	putBuf []byte
	nextID uint64
}

func (lc *loadConn) now() int64 { return int64(time.Since(lc.epoch)) }

// issue draws the next op, sends it and hands it to the collector. It
// reports false once the connection is gone.
func (lc *loadConn) issue(rec *phaseRec, due int64, open bool, pending chan<- issued) bool {
	kind, key := lc.stream.next()
	req := wire.Request{}
	switch kind {
	case opGet:
		req.Op, req.Key = wire.OpGet, lc.ks.names[key]
	case opMiss:
		req.Op, req.Key = wire.OpGet, lc.ks.absent[key]
	case opPut:
		lc.stream.value(lc.putBuf, key)
		req.Op, req.Key, req.Value = wire.OpPut, lc.ks.names[key], lc.putBuf
	case opDel:
		req.Op, req.Key = wire.OpDel, lc.ks.names[key]
	}
	lc.nextID++
	op := issued{id: lc.nextID<<8 | uint64(lc.idx), kind: kind, key: key}
	op.enter = lc.now()
	f, err := lc.cl.Do(&req)
	op.ret = lc.now()
	rec.attempted++
	rec.doNs += op.ret - op.enter
	if op.ret-op.enter > int64(blockedAfter) {
		rec.blocked++
	}
	if err != nil {
		rec.fail(fmt.Sprintf("%s %s: transport: %v", kind, req.Key, err))
		return false
	}
	op.f = f
	if open {
		op.due = due
		lag := op.enter - due
		rec.lateness = append(rec.lateness, lag)
		if lag > int64(lateAfter) {
			rec.late++
		}
		if w := rec.window(due); w >= 0 && lag > rec.lag[w] {
			rec.lag[w] = lag
		}
	} else {
		op.due = op.enter
	}
	if lc.tr.sampled(lc.nextID) {
		// A watcher timestamps the moment the future settles; the FIFO
		// collector may only get to this op later.
		settled := make(chan int64, 1)
		op.settled = settled
		go func() {
			_, _ = f.Wait()
			settled <- lc.now()
		}()
	}
	pending <- op
	return true
}

// collect settles ops in issue order, verifies every response and
// records latency from the due time. release, when set, frees a
// closed-loop slot per settled op.
func (lc *loadConn) collect(rec *phaseRec, pending <-chan issued, release func()) {
	for op := range pending {
		resp, err := op.f.Wait()
		done := lc.now()
		if release != nil {
			release()
		}
		if msg := lc.verify(op, resp, err); msg != "" {
			rec.fail(msg)
			continue
		}
		if w := rec.window(done); w >= 0 {
			rec.completed[w]++
		}
		if w := rec.window(op.due); w >= 0 {
			rec.lat[op.kind][w] = append(rec.lat[op.kind][w], done-op.due)
		}
		if op.settled != nil {
			lc.tr.opSpans(op.id, op.kind, op.due, op.enter, op.ret, <-op.settled, done)
		}
	}
}

// verify is the per-response correctness gate. It returns "" for the
// one acceptable outcome of each op kind and the offending op otherwise.
func (lc *loadConn) verify(op issued, resp wire.Response, err error) string {
	name := func() string {
		if op.kind == opMiss {
			return lc.ks.absent[op.key]
		}
		return lc.ks.names[op.key]
	}
	if err != nil {
		return fmt.Sprintf("%s %s: transport: %v", op.kind, name(), err)
	}
	switch op.kind {
	case opGet:
		if resp.Status == wire.StatusNotFound {
			return fmt.Sprintf("GET %s: NOT_FOUND for a preloaded, undeleted key", name())
		}
		if resp.Status != wire.StatusValue {
			return fmt.Sprintf("GET %s: %s", name(), resp.Status)
		}
		if _, _, ok := checkValue(resp.Payload, lc.ks.hashes[op.key]); !ok {
			return fmt.Sprintf("GET %s: %d-byte value was not written for this key", name(), len(resp.Payload))
		}
	case opMiss:
		if resp.Status == wire.StatusValue {
			return fmt.Sprintf("GET %s: a value for a never-written key", name())
		}
		if resp.Status != wire.StatusNotFound {
			return fmt.Sprintf("GET %s: %s", name(), resp.Status)
		}
	default:
		if resp.Status != wire.StatusOK {
			return fmt.Sprintf("%s %s: %s", op.kind, name(), resp.Status)
		}
	}
	return ""
}

// pendingDepth sizes the sender→collector queue above the client
// window, so the sender never blocks on the collector before it would
// block in Do on the window itself.
const pendingDepth = 2 * clientWindow

// runOpen drives one connection through a fixed open-loop schedule
// starting at rec.start.
func (lc *loadConn) runOpen(rec *phaseRec, pc pacer) {
	pending := make(chan issued, pendingDepth)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lc.collect(rec, pending, nil)
	}()
	sl := newSleeper()
	defer sl.close()
	for i := int64(0); i < pc.slots; i++ {
		due := rec.start + int64(pc.due(i))
		sl.sleepUntil(due, lc.now)
		alive := true
		for j := pc.opsIn(i); j > 0 && alive; j-- {
			alive = lc.issue(rec, due, true, pending)
		}
		if !alive {
			break
		}
	}
	close(pending)
	wg.Wait()
}

// runClosed keeps closedInFlight ops outstanding on one connection
// until the phase's end.
func (lc *loadConn) runClosed(rec *phaseRec) {
	pending := make(chan issued, pendingDepth)
	tokens := make(chan struct{}, closedInFlight) // semaphore
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lc.collect(rec, pending, func() { <-tokens })
	}()
	end := rec.start + int64(rec.windows)*rec.windowLen
	if d := rec.start - lc.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for lc.now() < end {
		tokens <- struct{}{}
		if !lc.issue(rec, 0, false, pending) {
			break
		}
	}
	close(pending)
	wg.Wait()
}

// phaseResult is one phase merged over connections, per window. Several
// can be joined into one: the cycles of a run are then one phase with
// one window per cycle.
type phaseResult struct {
	windowLen time.Duration

	p50, p90, p99 [nKinds][]float64 // ms per window; NaN without samples
	opP50         []float64         // ms per window, every op kind together
	opsPerSec     []float64         // successful completions/s per window
	cpuPerOp      []float64         // µs of process CPU per completion per window
	valid         []bool            // false: generator lagged more than maxLag

	// Raw material of the pooled numbers below, kept so phases can be joined.
	pooled             [nKinds][]int64 // latency ns of every window
	lateness           []int64
	late, blocked, doN int64

	attempted, failed int64
	firstFailure      string

	p99All     [nKinds]float64 // ms, all windows pooled
	samples    [nKinds]int
	lateShare  float64
	lateP99Ms  float64
	blockShare float64
	doNs       float64
	offered    float64 // ops/s actually issued
}

// runPhase runs one phase on every connection at once and samples
// process CPU at the window boundaries. rate is the open-loop offered
// load in ops/s; rate 0 selects the closed loop.
func runPhase(conns []*loadConn, rate int, windows int, windowLen time.Duration) *phaseResult {
	epochNow := conns[0].now()
	// Start a little ahead so every sender is parked at the line.
	start := epochNow + int64(20*time.Millisecond)
	recs := make([]*phaseRec, len(conns))
	var wg sync.WaitGroup
	for i, lc := range conns {
		r := connRate(rate, len(conns), i)
		total := time.Duration(windows) * windowLen
		recs[i] = newPhaseRec(start, int64(windowLen), windows, int(float64(r)*total.Seconds())+1)
		wg.Add(1)
		go func(lc *loadConn, rec *phaseRec) {
			defer wg.Done()
			if rate > 0 {
				lc.runOpen(rec, newPacer(r, total))
			} else {
				lc.runClosed(rec)
			}
		}(lc, recs[i])
	}
	cpu := make([]time.Duration, windows+1)
	for w := 0; w <= windows; w++ {
		at := start + int64(w)*int64(windowLen)
		if d := at - conns[0].now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		cpu[w] = processCPU()
	}
	wg.Wait()
	return mergePhase(recs, cpu, windowLen)
}

func mergePhase(recs []*phaseRec, cpu []time.Duration, windowLen time.Duration) *phaseResult {
	windows := recs[0].windows
	res := &phaseResult{windowLen: windowLen}
	res.opsPerSec = make([]float64, windows)
	res.cpuPerOp = make([]float64, windows)
	res.valid = make([]bool, windows)
	for w := 0; w < windows; w++ {
		var completed int64
		res.valid[w] = true
		for _, r := range recs {
			completed += r.completed[w]
			if r.lag[w] > int64(maxLag) {
				res.valid[w] = false
			}
		}
		res.opsPerSec[w] = float64(completed) / windowLen.Seconds()
		res.cpuPerOp[w] = math.NaN()
		if completed > 0 {
			res.cpuPerOp[w] = float64((cpu[w+1] - cpu[w]).Microseconds()) / float64(completed)
		}
	}
	for k := opKind(0); k < nKinds; k++ {
		res.p50[k] = make([]float64, windows)
		res.p99[k] = make([]float64, windows)
		res.p90[k] = make([]float64, windows)
	}
	res.opP50 = make([]float64, windows)
	for w := 0; w < windows; w++ {
		var every []int64
		for k := opKind(0); k < nKinds; k++ {
			var win []int64
			for _, r := range recs {
				win = append(win, r.lat[k][w]...)
			}
			res.p50[k][w], res.p90[k][w], res.p99[k][w] = math.NaN(), math.NaN(), math.NaN()
			if len(win) > 0 && res.valid[w] {
				slices.Sort(win)
				res.p50[k][w] = ms(quantile(win, 0.50))
				res.p90[k][w] = ms(quantile(win, 0.90))
				res.p99[k][w] = ms(quantile(win, 0.99))
			}
			res.pooled[k] = append(res.pooled[k], win...)
			every = append(every, win...)
		}
		res.opP50[w] = math.NaN()
		if len(every) > 0 && res.valid[w] {
			slices.Sort(every)
			res.opP50[w] = ms(quantile(every, 0.50))
		}
	}
	for _, r := range recs {
		res.attempted += r.attempted
		res.failed += r.failed
		res.late += r.late
		res.blocked += r.blocked
		res.doN += r.doNs
		res.lateness = append(res.lateness, r.lateness...)
		if res.firstFailure == "" {
			res.firstFailure = r.firstFailure
		}
	}
	res.pool()
	return res
}

// pool computes the numbers taken over all windows together.
func (p *phaseResult) pool() {
	for k := range p.pooled {
		slices.Sort(p.pooled[k])
		p.samples[k] = len(p.pooled[k])
		p.p99All[k] = ms(quantile(p.pooled[k], 0.99))
	}
	if p.attempted > 0 {
		p.lateShare = float64(p.late) / float64(p.attempted)
		p.blockShare = float64(p.blocked) / float64(p.attempted)
		p.doNs = float64(p.doN) / float64(p.attempted)
	}
	slices.Sort(p.lateness)
	p.lateP99Ms = ms(quantile(p.lateness, 0.99))
	p.offered = float64(p.attempted) / (time.Duration(len(p.valid)) * p.windowLen).Seconds()
}

// joinPhases makes one phase of several with equal window lengths, in
// order: its windows are theirs, its pooled numbers cover all of them.
func joinPhases(parts []*phaseResult) *phaseResult {
	res := &phaseResult{windowLen: parts[0].windowLen}
	for _, p := range parts {
		for k := range res.p50 {
			res.p50[k] = append(res.p50[k], p.p50[k]...)
			res.p90[k] = append(res.p90[k], p.p90[k]...)
			res.p99[k] = append(res.p99[k], p.p99[k]...)
			res.pooled[k] = append(res.pooled[k], p.pooled[k]...)
		}
		res.opP50 = append(res.opP50, p.opP50...)
		res.opsPerSec = append(res.opsPerSec, p.opsPerSec...)
		res.cpuPerOp = append(res.cpuPerOp, p.cpuPerOp...)
		res.valid = append(res.valid, p.valid...)
		res.lateness = append(res.lateness, p.lateness...)
		res.late += p.late
		res.blocked += p.blocked
		res.doN += p.doN
		res.attempted += p.attempted
		res.failed += p.failed
		if res.firstFailure == "" {
			res.firstFailure = p.firstFailure
		}
	}
	res.pool()
	return res
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// typical applies the median-window rule to one per-window series,
// skipping windows the generator voided.
func (p *phaseResult) typical(series []float64) float64 {
	usable := make([]float64, 0, len(series))
	for w, v := range series {
		if p.valid[w] {
			usable = append(usable, v)
		}
	}
	return typical(usable)
}
