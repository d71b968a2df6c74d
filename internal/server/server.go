package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datadroplets/internal/core"
	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/transport"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// Config assembles a Server.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self node.ID
	// Peers is the gossip address book shared by every cluster member.
	Peers []transport.Peer
	// ClientAddr is the DDB1 listen address; empty disables the client
	// listener (the node still gossips).
	ClientAddr string
	// TickInterval is the wall-clock protocol round length. Zero means
	// 200ms. Per-op deadlines are converted to rounds at this rate.
	TickInterval time.Duration
	// OpTimeout bounds each client op server-side; an op that has not
	// resolved by then answers StatusTimeout. Zero means 3s.
	OpTimeout time.Duration
	// MaxConns caps concurrent client connections; excess connections
	// are answered with one StatusBusy frame and closed. Zero means 4096.
	MaxConns int
	// Window caps pipelined ops in flight per connection. When it is
	// full the server stops reading the connection, which backpressures
	// the client through TCP. Zero means 64.
	Window int
	// Replication and FanoutC tune the epidemic layer (defaults 3, 2).
	Replication int
	FanoutC     float64
	// WriteAcks is how many replica acknowledgements complete a PUT/DEL.
	// Zero means 1.
	WriteAcks int
	// Seed fixes the node's randomness; zero derives one from the clock.
	Seed int64
	// Logger receives lifecycle diagnostics; nil silences them.
	Logger *log.Logger
}

// antiEntropyEvery is the gossip digest-pull period, in rounds.
const antiEntropyEvery = 10

func (c Config) normalized() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 200 * time.Millisecond
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 3 * time.Second
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 4096
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.FanoutC == 0 {
		c.FanoutC = 2
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano() ^ int64(c.Self)
	}
	return c
}

// Metrics are the server's live counters and latency histograms, safe
// to read concurrently (STATS serves them as JSON).
type Metrics struct {
	OpsTotal metrics.Counter
	Timeouts metrics.Counter
	Busy     metrics.Counter
	Errors   metrics.Counter

	PutLatency  metrics.Histogram
	GetLatency  metrics.Histogram
	DelLatency  metrics.Histogram
	MetaLatency metrics.Histogram
}

// slot is one request's place in a connection's response pipeline. The
// writer goroutine waits on done and emits slots strictly in request
// order, which is the protocol's response-matching rule.
type slot struct {
	kind    wire.Op
	start   time.Time
	done    chan struct{}
	status  wire.Status
	payload []byte
}

func (sl *slot) settle(st wire.Status, payload []byte) {
	sl.status, sl.payload = st, payload
	close(sl.done)
}

// Server is one live DataDroplets node.
type Server struct {
	cfg  Config
	host *transport.Host
	m    *machine
	ln   net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// draining is written once, under mu (so addConn's check-and-admit
	// stays one step against Close), and read lock-free on every op.
	draining atomic.Bool

	inflight atomic.Int64
	connWG   sync.WaitGroup
	acceptWG sync.WaitGroup

	closeOnce sync.Once
	closedCh  chan struct{}

	Met Metrics
}

// New builds a server; Start boots it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	ids := make([]node.ID, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		ids = append(ids, p.ID)
	}
	s := &Server{
		cfg:      cfg,
		conns:    make(map[net.Conn]struct{}),
		closedCh: make(chan struct{}),
	}
	s.m = newMachine(cfg, rand.New(rand.NewSource(cfg.Seed)), ids, s.finishOp)
	host, err := transport.NewHost(transport.Config{
		Self:         cfg.Self,
		Peers:        cfg.Peers,
		TickInterval: cfg.TickInterval,
		Logger:       cfg.Logger,
	}, s.m)
	if err != nil {
		return nil, err
	}
	s.host = host
	return s, nil
}

// Start binds the gossip host and the client listener.
func (s *Server) Start() error {
	if err := s.host.Start(); err != nil {
		return err
	}
	if s.cfg.ClientAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.ClientAddr)
		if err != nil {
			s.host.Stop()
			return fmt.Errorf("server: client listen: %w", err)
		}
		s.ln = ln
		s.acceptWG.Add(1)
		go s.acceptLoop()
	}
	s.logf("node %s: gossip on %s, clients on %s, r=%d window=%d timeout=%s seed=%d",
		s.cfg.Self, s.host.Addr(), s.ClientAddr(), s.cfg.Replication, s.cfg.Window, s.cfg.OpTimeout, s.cfg.Seed)
	return nil
}

// ClientAddr returns the bound client listen address ("" if disabled).
func (s *Server) ClientAddr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// InFlight returns the number of client ops currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Conns returns the number of open client connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close drains and stops the server: mark draining (new ops answer
// BUSY), stop accepting, half-close client connections so no new frames
// arrive, wait for in-flight ops to resolve or expire, then tear down
// connections and the gossip host — strictly in that order, so every
// accepted request gets its response before the pipeline dies.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closedCh)
		s.mu.Lock()
		s.draining.Store(true)
		for c := range s.conns {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.CloseRead()
			}
		}
		s.mu.Unlock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		s.acceptWG.Wait()
		// In-flight ops resolve normally or expire at their armed
		// deadline — ticks keep running until the host stops below, so
		// this wait is bounded by OpTimeout plus scheduling slack.
		deadline := time.Now().Add(s.cfg.OpTimeout + 2*s.cfg.TickInterval + time.Second)
		for s.inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := s.inflight.Load(); n > 0 {
			s.logf("node %s: %d ops still in flight at drain deadline", s.cfg.Self, n)
		}
		s.connWG.Wait()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		s.host.Stop()
		// Stop ran every stranded submit closure, so the machine's
		// pending ops are final: anything still registered lost its
		// deadline ticks. Settle those slots BUSY so no response
		// pipeline hangs.
		for id, sl := range s.m.pending {
			delete(s.m.pending, id)
			s.inflight.Add(-1)
			s.Met.Busy.Inc()
			sl.settle(wire.StatusBusy, nil)
		}
		s.logf("node %s: stopped", s.cfg.Self)
	})
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// addConn admits a connection, or reports it must be refused.
func (s *Server) addConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if !s.addConn(c) {
		// Refused: consume the preamble, emit one BUSY frame — by the
		// ordering rule it answers the client's first request — then
		// half-close and drain, so the frame is delivered instead of
		// being torn down by a reset while the client is still writing.
		s.Met.Busy.Inc()
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if wire.ReadMagic(c) != nil {
			return
		}
		w := bufio.NewWriter(c)
		_ = wire.EncodeResponse(w, &wire.Response{Status: wire.StatusBusy})
		_ = w.Flush()
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_, _ = io.Copy(io.Discard, c)
		return
	}
	defer s.removeConn(c)
	defer c.Close()
	r := bufio.NewReaderSize(c, 16<<10)
	if err := wire.ReadMagic(r); err != nil {
		return
	}
	// queue is the response pipeline: cap Window bounds ops in flight on
	// this connection. When it is full this goroutine blocks here instead
	// of reading the next frame — TCP backpressure does the rest.
	queue := make(chan *slot, s.cfg.Window)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go s.writeLoop(c, queue, &writerWG)
	var req wire.Request
	for {
		if err := wire.DecodeRequest(r, &req); err != nil {
			break
		}
		sl := &slot{kind: req.Op, start: time.Now(), done: make(chan struct{})}
		queue <- sl
		s.dispatch(&req, sl)
	}
	close(queue)
	writerWG.Wait()
}

// writeLoop emits responses in request order, flushing only when the
// pipeline would otherwise go idle (batching pipelined responses into
// few syscalls). A write error degrades it to a drain: slots must keep
// being consumed or the reader would deadlock against a full queue.
func (s *Server) writeLoop(c net.Conn, queue chan *slot, wg *sync.WaitGroup) {
	defer wg.Done()
	w := bufio.NewWriterSize(c, 16<<10)
	dead := false
	var resp wire.Response
	for {
		var sl *slot
		var ok bool
		select {
		case sl, ok = <-queue:
		default:
			if !dead && w.Flush() != nil {
				dead = true
			}
			sl, ok = <-queue
		}
		if !ok {
			if !dead {
				_ = w.Flush()
			}
			return
		}
		select {
		case <-sl.done:
		default:
			if !dead && w.Flush() != nil {
				dead = true
			}
			<-sl.done
		}
		if dead {
			continue
		}
		resp.Status, resp.Payload = sl.status, sl.payload
		if wire.EncodeResponse(w, &resp) != nil {
			dead = true
		}
	}
}

// dispatch submits one decoded request. PUT/DEL/GET are posted to the
// machine, which settles them when they resolve: the connection
// goroutine does not wait, so one slow op never serialises a
// connection's intake. Cheap ops settle before returning.
func (s *Server) dispatch(req *wire.Request, sl *slot) {
	s.Met.OpsTotal.Inc()
	if s.draining.Load() {
		s.Met.Busy.Inc()
		sl.settle(wire.StatusBusy, nil)
		return
	}
	switch req.Op {
	case wire.OpPut, wire.OpDel, wire.OpGet:
		key := req.Key
		var value []byte
		if req.Op == wire.OpPut {
			// Copy: req.Value is the codec's reused buffer. This is the
			// write's one copy at its origin; the soft layer takes it over.
			value = append([]byte(nil), req.Value...)
		}
		s.inflight.Add(1)
		err := s.host.Post(func(_ sim.Machine, now sim.Round) []sim.Envelope {
			return s.m.submit(now, sl, key, value)
		})
		if err != nil {
			// Host stopped mid-dispatch: answer BUSY rather than dropping.
			s.inflight.Add(-1)
			s.Met.Busy.Inc()
			sl.settle(wire.StatusBusy, nil)
		}
	case wire.OpNEst:
		s.readState(sl, func() []byte { return wire.AppendFloat64(nil, s.m.en.NEstimate()) })
	case wire.OpLen:
		s.readState(sl, func() []byte { return wire.AppendUint64(nil, uint64(s.m.en.St.Len())) })
	case wire.OpStats:
		s.serveStats(sl)
	case wire.OpPing:
		s.Met.MetaLatency.Observe(time.Since(sl.start).Nanoseconds())
		sl.settle(wire.StatusOK, nil)
	default:
		s.Met.Errors.Inc()
		sl.settle(wire.StatusErr, fmt.Appendf(nil, "unknown opcode %d", uint8(req.Op)))
	}
}

// readState serves a metadata read: build runs on the driver (the only
// place machine state may be read) and returns the OK payload.
func (s *Server) readState(sl *slot, build func() []byte) {
	var payload []byte
	err := s.host.Do(func(_ sim.Machine, _ sim.Round) []sim.Envelope {
		payload = build()
		return nil
	})
	s.Met.MetaLatency.Observe(time.Since(sl.start).Nanoseconds())
	if err != nil {
		s.Met.Busy.Inc()
		sl.settle(wire.StatusBusy, nil)
		return
	}
	sl.settle(wire.StatusOK, payload)
}

// finishOp settles a slot from a resolved soft-layer op: the machine's
// finish callback, so it touches only the slot and atomic counters.
func (s *Server) finishOp(sl *slot, op *core.Op) {
	defer s.inflight.Add(-1)
	lat := time.Since(sl.start).Nanoseconds()
	switch op.Kind {
	case core.OpPut:
		s.Met.PutLatency.Observe(lat)
	case core.OpDelete:
		s.Met.DelLatency.Observe(lat)
	case core.OpGet:
		s.Met.GetLatency.Observe(lat)
	}
	switch {
	case op.Expired:
		s.Met.Timeouts.Inc()
		sl.settle(wire.StatusTimeout, nil)
	case op.Kind == core.OpGet:
		if op.Tuple == nil {
			sl.settle(wire.StatusNotFound, nil)
		} else {
			sl.settle(wire.StatusValue, op.Tuple.Value)
		}
	case op.Err != "":
		s.Met.Errors.Inc()
		sl.settle(wire.StatusErr, []byte(op.Err))
	default:
		// PUT/DEL success: the payload is the version it was sequenced at.
		sl.settle(wire.StatusOK, tuple.AppendVersion(nil, op.Version))
	}
}

// Stats is the STATS response document.
type Stats struct {
	Node     string `json:"node"`
	Conns    int    `json:"conns"`
	InFlight int64  `json:"in_flight"`
	Pending  int    `json:"pending_ops"`

	OpsTotal int64 `json:"ops_total"`
	Timeouts int64 `json:"timeouts"`
	Busy     int64 `json:"busy"`
	Errors   int64 `json:"errors"`

	StoreLen  int     `json:"store_len"`
	NEstimate float64 `json:"n_estimate"`

	// The gossip layer's memory (docs/OPERATIONS.md "Memory"): rumor IDs
	// inside the retention window, bytes of rumor payloads still held for
	// digest pulls, and payloads the byte budget dropped early. Then its
	// traffic: rumor copies sent, and copies received that were already
	// held — together the fabric's useful-to-attempted ratio.
	GossipSeen           int   `json:"gossip_seen"`
	GossipCacheBytes     int   `json:"gossip_cache_bytes"`
	GossipCacheEvictions int64 `json:"gossip_cache_evictions"`
	GossipRelayed        int64 `json:"gossip_relayed"`
	GossipDupes          int64 `json:"gossip_dupes"`

	MailboxDepth  int   `json:"mailbox_depth"`
	FabricSent    int64 `json:"fabric_sent"`
	FabricDropped int64 `json:"fabric_dropped"`
	// FabricUnknownTags counts inbound frames skipped under the
	// mixed-version rule (docs/PROTOCOL.md, "Inter-node framing").
	FabricUnknownTags int64 `json:"fabric_unknown_tags"`

	// Background repair this node has run (docs/OPERATIONS.md): sub-range
	// digests exchanged by segmented sync, supersession sweeps fired,
	// bystander copies retired on keeper confirmation, and pushes
	// withheld because the peer does not cover the key.
	RepairSyncSegments  int64 `json:"repair_sync_segments"`
	RepairSweeps        int64 `json:"repair_sweeps"`
	RepairSuperseded    int64 `json:"repair_superseded"`
	RepairCoverageSkips int64 `json:"repair_coverage_skips"`
	// RejectedTuples counts received tuples refused by tuple.Validate
	// before they reached the store or the version floor.
	RejectedTuples int64 `json:"rejected_tuples"`

	// Where the soft layer answered Gets — its cache, the collocated
	// replica, or the fabric — and its version floor's size: one entry
	// per key written anywhere in the cluster that this node heard of.
	SoftCacheHits   int64 `json:"soft_cache_hits"`
	SoftLocalReads  int64 `json:"soft_local_reads"`
	SoftFabricReads int64 `json:"soft_fabric_reads"`
	SoftSeqKeys     int   `json:"soft_seq_keys"`

	Put  LatencySummary `json:"put_latency_ns"`
	Get  LatencySummary `json:"get_latency_ns"`
	Del  LatencySummary `json:"del_latency_ns"`
	Meta LatencySummary `json:"meta_latency_ns"`
}

// LatencySummary condenses one histogram for the STATS document.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
}

func summarize(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
}

// StatsSnapshot assembles the current Stats document.
func (s *Server) StatsSnapshot() (Stats, error) {
	st := Stats{
		Node:          s.cfg.Self.String(),
		Conns:         s.Conns(),
		InFlight:      s.inflight.Load(),
		OpsTotal:      s.Met.OpsTotal.Value(),
		Timeouts:      s.Met.Timeouts.Value(),
		Busy:          s.Met.Busy.Value(),
		Errors:        s.Met.Errors.Value(),
		MailboxDepth:  s.host.QueueDepth(),
		FabricSent:    s.host.Sent.Value(),
		FabricDropped: s.host.Dropped.Value(),

		FabricUnknownTags: s.host.UnknownTags.Value(),

		Put:  summarize(&s.Met.PutLatency),
		Get:  summarize(&s.Met.GetLatency),
		Del:  summarize(&s.Met.DelLatency),
		Meta: summarize(&s.Met.MetaLatency),
	}
	err := s.host.Do(func(_ sim.Machine, _ sim.Round) []sim.Envelope {
		en, soft := s.m.en, s.m.soft
		st.Pending = len(s.m.pending)
		st.StoreLen = en.St.Len()
		st.NEstimate = en.NEstimate()
		st.GossipSeen = en.Diss.SeenLen()
		st.GossipCacheBytes = en.Diss.CacheBytes()
		st.GossipCacheEvictions = en.Diss.Evicted
		st.GossipRelayed = en.Diss.Relayed
		st.GossipDupes = en.Diss.Dupes
		st.SoftCacheHits = soft.CacheHits
		st.SoftLocalReads = soft.LocalReads
		st.SoftFabricReads = soft.PersistentReads
		st.SoftSeqKeys = soft.Seq.Len()
		st.RepairSyncSegments = en.Repair.Segments
		st.RepairSweeps = en.Repair.Sweeps
		st.RepairSuperseded = en.Repair.Superseded
		st.RepairCoverageSkips = en.Repair.CoverageSkips
		st.RejectedTuples = en.Rejected + en.Repair.Rejected + soft.Rejected
		return nil
	})
	return st, err
}

func (s *Server) serveStats(sl *slot) {
	st, err := s.StatsSnapshot()
	s.Met.MetaLatency.Observe(time.Since(sl.start).Nanoseconds())
	if err != nil {
		s.Met.Busy.Inc()
		sl.settle(wire.StatusBusy, nil)
		return
	}
	raw, err := json.Marshal(st)
	if err != nil {
		s.Met.Errors.Inc()
		sl.settle(wire.StatusErr, []byte(err.Error()))
		return
	}
	sl.settle(wire.StatusOK, raw)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}
