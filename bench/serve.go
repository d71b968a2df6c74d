package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/node"
	"datadroplets/internal/server"
	"datadroplets/internal/transport"
	"datadroplets/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	e2e   map[string]metric // untraced runs
	layer map[string]metric // traced runs
	// attempted and failed count client operations over every phase,
	// set-up and warm-up included.
	attempted, failed int64
	// violations are correctness failures; any makes the run incorrect.
	violations []string
	// notes are diagnostics for the human report.
	notes []string
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runResult) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// loadConns is the number of client connections: one per core up to
// four, at least two, all driven from this process.
func loadConns() int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	if c < 2 {
		c = 2
	}
	return c
}

// cluster is an in-process loopback cluster of real servers: DDB1
// client listeners and the DDN1 fabric both run over TCP.
type cluster struct {
	servers []*server.Server
}

// loopbackPeers builds a fabric address book of n nodes on free
// loopback ports. The book must be complete before any node starts, so
// each port is found by binding and releasing it.
func loopbackPeers(n int) ([]transport.Peer, error) {
	peers := make([]transport.Peer, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve fabric address: %w", err)
		}
		peers[i] = transport.Peer{ID: node.ID(i + 1), Addr: ln.Addr().String()}
		_ = ln.Close()
	}
	return peers, nil
}

// bootCluster boots the cluster, trying again on fresh addresses when a
// node cannot bind: between reserving a fabric port and the node
// listening on it the kernel may hand the port to an outgoing connection
// (one boot in some thirty, with three set-ups a run).
func bootCluster(w workload, seed int64) (*cluster, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var c *cluster
		if c, err = bootOnce(w, seed); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func bootOnce(w workload, seed int64) (*cluster, error) {
	peers, err := loopbackPeers(w.nodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	for i := range peers {
		// Everything not set here is the shipped default.
		srv, err := server.New(server.Config{
			Self:         peers[i].ID,
			Peers:        peers,
			ClientAddr:   "127.0.0.1:0",
			Seed:         seed*1000 + int64(i+1),
			Replication:  w.replication,
			TickInterval: w.tick,
		})
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot node %d: %w", i+1, err)
		}
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
}

func (c *cluster) dial(nodeIdx int) (*ddclient.Client, error) {
	return ddclient.Dial(c.servers[nodeIdx%len(c.servers)].ClientAddr(), ddclient.Options{Window: clientWindow})
}

// preload writes every key through one pipelined connection to the
// first node, then reads a 1% sample from every node until all of it
// is found. It does not wait for store sizes to settle: with more nodes
// than replicas, repair keeps moving copies for as long as one watches.
func preload(c *cluster, ks *keyset, w workload, res *runResult) error {
	cl, err := c.dial(0)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	defer cl.Close()
	futs := make(chan *ddclient.Future, clientWindow) // the pipeline window
	errc := make(chan error, 1)
	go func() {
		var first error
		for f := range futs {
			resp, err := f.Wait()
			if first != nil {
				continue
			}
			if err != nil {
				first = err
			} else if resp.Status != wire.StatusOK {
				first = fmt.Errorf("PUT answered %s", resp.Status)
			}
		}
		errc <- first
	}()
	buf := make([]byte, w.valueLen)
	var sendErr error
	for i, name := range ks.names {
		fillValue(buf, ks.hashes[i], preloadWriter, uint64(i))
		f, err := cl.Do(&wire.Request{Op: wire.OpPut, Key: name, Value: buf})
		if err != nil {
			sendErr = err
			break
		}
		futs <- f
	}
	close(futs)
	res.attempted += int64(len(ks.names))
	if err := errors.Join(sendErr, <-errc); err != nil {
		res.failed++
		return fmt.Errorf("preload: %w", err)
	}
	for n := range c.servers {
		if err := verifySample(c, n, ks, res); err != nil {
			return err
		}
	}
	return nil
}

// verifySample reads every hundredth key through node n, retrying the
// ones not found yet, and checks each value.
func verifySample(c *cluster, n int, ks *keyset, res *runResult) error {
	cl, err := c.dial(n)
	if err != nil {
		return fmt.Errorf("verify node %d: %w", n+1, err)
	}
	defer cl.Close()
	var todo []int
	for i := (n * 7) % 100; i < len(ks.names); i += 100 {
		todo = append(todo, i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(todo) > 0 {
		var missing []int
		for at := 0; at < len(todo); at += clientWindow {
			batch := todo[at:min(at+clientWindow, len(todo))]
			futs := make([]*ddclient.Future, len(batch))
			for j, k := range batch {
				if futs[j], err = cl.Do(&wire.Request{Op: wire.OpGet, Key: ks.names[k]}); err != nil {
					return fmt.Errorf("verify node %d: %w", n+1, err)
				}
			}
			res.attempted += int64(len(batch))
			for j, k := range batch {
				resp, err := futs[j].Wait()
				switch {
				case err != nil:
					return fmt.Errorf("verify node %d: %w", n+1, err)
				case resp.Status == wire.StatusNotFound:
					missing = append(missing, k)
				case resp.Status != wire.StatusValue:
					res.failed++
					return fmt.Errorf("verify node %d: GET %s answered %s", n+1, ks.names[k], resp.Status)
				default:
					if _, _, ok := checkValue(resp.Payload, ks.hashes[k]); !ok {
						res.failed++
						return fmt.Errorf("verify node %d: GET %s returned a value not written for it", n+1, ks.names[k])
					}
				}
			}
		}
		// A retried read is not a failed operation: the preload is
		// still spreading, which is what this loop waits for.
		res.attempted -= int64(len(missing))
		todo = missing
		if len(todo) > 0 {
			if time.Now().After(deadline) {
				res.failed += int64(len(todo))
				return fmt.Errorf("verify node %d: %d preloaded keys still NOT_FOUND after 30s, e.g. %s", n+1, len(todo), ks.names[todo[0]])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// setUp builds and preloads the cluster w.setups times, keeping the
// last, and returns the set-up times. Repeating it is what makes
// setup_s a median instead of a single draw.
func setUp(w workload, seed int64, ks *keyset, res *runResult) (*cluster, []float64, error) {
	var times []float64
	var c *cluster
	for i := 0; i < w.setups; i++ {
		if c != nil {
			c.close()
			runtime.GC() // the discarded cluster must not count against this one
		}
		t0 := time.Now()
		var err error
		if c, err = bootCluster(w, seed); err != nil {
			return nil, nil, err
		}
		if err = preload(c, ks, w, res); err != nil {
			c.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, times, nil
}

// setEndToEnd fills in the end-to-end metrics, the same for every
// workload; sat and op50 are median-window values.
func (r *runResult) setEndToEnd(setups []float64, sat, op50 float64) {
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.e2e["sat_ops_s"] = metric{sat, "1/s"}
	r.e2e["op_p50_ms"] = metric{op50, "ms"}
	r.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// setKindLatencies fills in the per-layer latencies by op kind, median
// windows in ms. A workload without an op kind reports 0 for it: no
// such work was done.
func (r *runResult) setKindLatencies(p50, p90, p99 [nKinds][]float64) {
	orZero := func(windows []float64) metric {
		if v := typical(windows); !math.IsNaN(v) {
			return metric{v, "ms"}
		}
		return metric{0, "ms"}
	}
	r.layer["loadgen.get_p50_ms"] = orZero(p50[opGet])
	r.layer["loadgen.put_p50_ms"] = orZero(p50[opPut])
	r.layer["loadgen.miss_p50_ms"] = orZero(p50[opMiss])
	r.layer["loadgen.get_p90_ms"] = orZero(p90[opGet])
	r.layer["loadgen.put_p90_ms"] = orZero(p90[opPut])
	r.layer["loadgen.get_p99_ms"] = orZero(p99[opGet])
	r.layer["loadgen.put_p99_ms"] = orZero(p99[opPut])
}

// fold adds a phase's op counts and first failure to the result.
func (r *runResult) fold(phase string, p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	if p.firstFailure != "" {
		r.violate("%s: %d of %d ops failed, first: %s", phase, p.failed, p.attempted, p.firstFailure)
	}
}

// runServe runs one serve workload: set-up, warm-up (discarded), then
// the plan's cycles of an open-loop window at the workload's fixed rate
// and a closed-loop window. A traced run adds the span recording, the
// server-side counters and the idle-cluster probes.
func runServe(w workload, seed int64, pl plan, tr *tracer) (*runResult, error) {
	res := newRunResult()
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	ks := newKeyset(seed, w.keys)
	c, setups, err := setUp(w, seed, ks, res)
	if err != nil {
		return res, err
	}
	defer c.close()
	copies := 0
	for _, s := range c.servers {
		st, err := s.StatsSnapshot()
		if err != nil {
			return res, err
		}
		copies += st.StoreLen
	}

	conns := make([]*loadConn, loadConns())
	for i := range conns {
		cl, err := c.dial(i)
		if err != nil {
			return res, fmt.Errorf("dial: %w", err)
		}
		defer cl.Close()
		conns[i] = &loadConn{
			idx: i, cl: cl, ks: ks, epoch: epoch,
			stream: newOpStream(seed, i, len(conns), ks, w.mix, w.zipf),
			putBuf: make([]byte, w.putLen),
		}
	}
	setTracer := func(t *tracer) {
		for _, lc := range conns {
			lc.tr = t
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	watch := startWatcher(c, tr != nil)

	res.fold("warm-up", runPhase(conns, w.rate, 1, pl.warmup))
	var opens, closeds []*phaseResult
	var srvStats server.Stats
	tracedSat := math.NaN()
	for cycle := 0; cycle < pl.cycles; cycle++ {
		if cycle > 0 {
			res.fold("settling", runPhase(conns, w.rate, 1, pl.settle))
		}
		setTracer(tr)
		open := runPhase(conns, w.rate, 1, pl.open)
		res.fold("open loop", open)
		opens = append(opens, open)
		setTracer(nil)
		if tr != nil {
			// Server-side histograms are cumulative; read them before the
			// closed loop floods them with saturated-latency samples.
			if srvStats, err = c.servers[1].StatsSnapshot(); err != nil {
				return res, err
			}
		}
		closed := runPhase(conns, 0, 1, pl.closed)
		res.fold("closed loop", closed)
		closeds = append(closeds, closed)
		if tr != nil {
			setTracer(tr)
			traced := runPhase(conns, 0, 1, pl.closed)
			res.fold("closed loop (traced)", traced)
			tracedSat = traced.opsPerSec[0]
			setTracer(nil)
		}
	}
	open, closed := joinPhases(opens), joinPhases(closeds)
	sat := closed.typical(closed.opsPerSec)
	peaks := watch.stop()
	runtime.ReadMemStats(&after)

	voided := 0
	for _, ok := range open.valid {
		if !ok {
			voided++
		}
	}
	if voided == len(open.valid) {
		return res, fmt.Errorf("rate too high for host: the generator fell more than %s behind its %d ops/s schedule in every open-loop window", maxLag, w.rate)
	}

	res.setEndToEnd(setups, sat, open.typical(open.opP50))

	res.notef("set-up times %.3v s; %d of %d open-loop windows voided by generator lag", setups, voided, len(open.valid))
	res.notef("open loop %d ops/s: samples get=%d miss=%d put=%d del=%d", w.rate,
		open.samples[opGet], open.samples[opMiss], open.samples[opPut], open.samples[opDel])
	res.notef("per-window op_p50_ms %.3v  cpu_us_per_op %.3v  closed-loop ops/s %.0f",
		open.opP50, open.cpuPerOp, closed.opsPerSec)
	res.notef("loadgen.late_share %.5f  loadgen.late_p99_ms %.3f  loadgen.get_p99_all_ms %.3f  loadgen.put_p99_all_ms %.3f  ddclient.window_block_share %.5f",
		open.lateShare, open.lateP99Ms, open.p99All[opGet], open.p99All[opPut], open.blockShare)

	var sent, dropped, unknown, timeouts, busy, errs int64
	for _, s := range c.servers {
		st, err := s.StatsSnapshot()
		if err != nil {
			return res, err
		}
		sent += st.FabricSent
		dropped += st.FabricDropped
		unknown += st.FabricUnknownTags
		timeouts += st.Timeouts
		busy += st.Busy
		errs += st.Errors
	}
	res.notef("fabric: %d envelopes sent, %d shed; servers: %d timeouts, %d busy, %d errors", sent, dropped, timeouts, busy, errs)

	if tr == nil {
		return res, nil
	}

	// Per-layer numbers that need the loaded cluster.
	l := res.layer
	l["loadgen.late_share"] = metric{open.lateShare, "share"}
	l["loadgen.late_p99_ms"] = metric{open.lateP99Ms, "ms"}
	l["loadgen.offered_ops_s"] = metric{open.offered, "1/s"}
	l["loadgen.cpu_us_per_op"] = metric{open.typical(open.cpuPerOp), "us"}
	res.setKindLatencies(open.p50, open.p90, open.p99)
	l["loadgen.get_p99_all_ms"] = metric{open.p99All[opGet], "ms"}
	l["loadgen.put_p99_all_ms"] = metric{open.p99All[opPut], "ms"}
	l["ddclient.do_ns"] = metric{open.doNs, "ns"}
	l["ddclient.window_block_share"] = metric{open.blockShare, "share"}
	l["trace.overhead_share"] = metric{1 - tracedSat/sat, "share"}
	l["epidemic.copies_per_key"] = metric{float64(copies) / float64(w.keys), "count"}
	l["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	l["runtime.gc_pause_total_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	l["runtime.heap_live_mb"] = metric{heapLiveMB(), "MB"}
	l["runtime.goroutines_max"] = metric{float64(peaks.goroutines), "count"}
	l["transport.mailbox_depth_max"] = metric{float64(peaks.mailbox), "count"}
	l["server.inflight_max"] = metric{float64(peaks.inflight), "count"}

	l["transport.envelopes_per_op"] = metric{float64(sent) / float64(res.attempted), "count"}
	l["transport.dropped"] = metric{float64(dropped), "count"}
	l["transport.unknown_tags"] = metric{float64(unknown), "count"}
	l["server.timeouts"] = metric{float64(timeouts), "count"}
	l["server.busy"] = metric{float64(busy), "count"}
	l["server.errors"] = metric{float64(errs), "count"}
	l["loadgen.fail_share"] = metric{float64(res.failed) / float64(res.attempted), "share"}
	l["server.get_srv_p50_us"] = metric{float64(srvStats.Get.P50) / 1e3, "us"}
	l["server.put_srv_p50_us"] = metric{float64(srvStats.Put.P50) / 1e3, "us"}
	l["server.client_gap_us"] = metric{0, "us"} // a mix without Gets has no gap to report
	if get50 := l["loadgen.get_p50_ms"].Value; get50 > 0 {
		l["server.client_gap_us"] = metric{get50*1e3 - float64(srvStats.Get.P50)/1e3, "us"}
	}

	// The probes read and write arbitrary keys: re-Put the few the load
	// left deleted, then let the closed loop's tail drain.
	for _, lc := range conns {
		for _, k := range lc.stream.redo {
			lc.stream.value(lc.putBuf, k)
			res.attempted++
			if _, err := lc.cl.Put(ks.names[k], lc.putBuf); err != nil {
				res.failed++
				return res, fmt.Errorf("re-Put %s: %w", ks.names[k], err)
			}
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := idleProbes(c, ks, w, seed, pl, tr, res); err != nil {
		return res, err
	}
	return res, nil
}

func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// watcher samples, during a traced run only, the gauges that have no
// cumulative counter: goroutines, fabric mailbox depth, ops in flight.
type watcher struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peaks watchPeaks
}

type watchPeaks struct{ goroutines, mailbox, inflight int }

func startWatcher(c *cluster, on bool) *watcher {
	w := &watcher{stopc: make(chan struct{})}
	if !on {
		return w
	}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
			w.peaks.goroutines = max(w.peaks.goroutines, runtime.NumGoroutine())
			for _, s := range c.servers {
				if st, err := s.StatsSnapshot(); err == nil {
					w.peaks.mailbox = max(w.peaks.mailbox, st.MailboxDepth)
					w.peaks.inflight = max(w.peaks.inflight, int(st.InFlight))
				}
			}
		}
	}()
	return w
}

func (w *watcher) stop() watchPeaks {
	close(w.stopc)
	w.done.Wait()
	return w.peaks
}

// idleProbes times synchronous round trips on the now idle cluster:
// PING never leaves the connection goroutines, LEN crosses into the
// protocol driver and back, GET and PUT are whole operations. Their
// differences split an op's blocking path. It ends with the visibility
// probes: how long after node A acknowledged a write node B serves it.
func idleProbes(c *cluster, ks *keyset, w workload, seed int64, pl plan, tr *tracer, res *runResult) error {
	a, err := c.dial(0)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := c.dial(len(c.servers) - 1)
	if err != nil {
		return err
	}
	defer b.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x1d1e))
	buf := make([]byte, w.putLen)
	var probeErr error
	timeSync := func(name string, n int, op func(i int) error) float64 {
		lat := make([]int64, 0, n)
		tr.probe(name, func() {
			for i := 0; i < n && probeErr == nil; i++ {
				t0 := time.Now()
				probeErr = op(i)
				lat = append(lat, int64(time.Since(t0)))
			}
		})
		res.attempted += int64(len(lat))
		slices.Sort(lat)
		return float64(quantile(lat, 0.5)) / 1e3
	}
	const n = 2000
	ping := timeSync("server.ping_rtt_us", n, func(int) error { return b.Ping() })
	length := timeSync("server.len_rtt_us", n, func(int) error { _, err := b.Len(); return err })
	get := timeSync("server.get_rtt_us", n, func(int) error {
		k := rng.Intn(len(ks.names))
		v, err := b.Get(ks.names[k])
		if err == nil {
			if _, _, ok := checkValue(v, ks.hashes[k]); !ok {
				err = fmt.Errorf("GET %s returned a value not written for it", ks.names[k])
			}
		}
		return err
	})
	put := timeSync("server.put_rtt_us", n/2, func(i int) error {
		k := rng.Intn(len(ks.names))
		fillValue(buf, ks.hashes[k], probeWriter, uint64(i))
		_, err := b.Put(ks.names[k], buf)
		return err
	})
	if probeErr != nil {
		res.failed++
		return fmt.Errorf("idle probe: %w", probeErr)
	}
	l := res.layer
	l["server.ping_rtt_us"] = metric{ping, "us"}
	l["server.len_rtt_us"] = metric{length, "us"}
	l["server.driver_wait_us"] = metric{length - ping, "us"}
	l["server.get_rtt_us"] = metric{get, "us"}
	l["server.put_rtt_us"] = metric{put, "us"}

	// A node that is not a replica of a key answers Gets of it from its
	// tuple cache for as long as its sequencer has not heard of a newer
	// version — and nothing tells it (docs/DESIGN.md §4). Such a probe
	// would never end, so each is capped; the capped ones are counted,
	// and enter the median at the cap.
	const visCap = 200 * time.Millisecond
	vis := make([]int64, 0, pl.visProbes)
	late := 0
	tr.probe("epidemic.visible_p50_us", func() {
		for i := 0; i < pl.visProbes && probeErr == nil; i++ {
			k := rng.Intn(len(ks.names))
			nonce := uint64(1)<<40 | uint64(i)
			fillValue(buf, ks.hashes[k], probeWriter, nonce)
			if _, probeErr = a.Put(ks.names[k], buf); probeErr != nil {
				break
			}
			acked := time.Now()
			for {
				v, err := b.Get(ks.names[k])
				if err != nil {
					probeErr = err
					break
				}
				waited := time.Since(acked)
				if wr, seq, ok := checkValue(v, ks.hashes[k]); !ok {
					probeErr = fmt.Errorf("GET %s returned a value not written for it", ks.names[k])
					break
				} else if wr == probeWriter && seq == nonce {
					vis = append(vis, int64(waited))
					break
				}
				if waited > visCap {
					vis = append(vis, int64(visCap))
					late++
					break
				}
			}
		}
	})
	res.attempted += int64(2 * len(vis))
	if probeErr != nil {
		res.failed++
		return fmt.Errorf("visibility probe: %w", probeErr)
	}
	slices.Sort(vis)
	l["epidemic.visible_p50_us"] = metric{float64(quantile(vis, 0.5)) / 1e3, "us"}
	l["epidemic.visible_late_share"] = metric{float64(late) / float64(len(vis)), "share"}
	res.notef("visibility: %d of %d writes acknowledged by node 1 were not readable at node %d within %s", late, len(vis), len(c.servers), visCap)
	return nil
}

// probeWriter is the writer id of values written by the idle probes.
const probeWriter = 0xfffffffe
