// Package transport drives the same protocol state machines the
// simulator drives, but over real TCP between processes: one goroutine
// owns the machine (serialising Tick/Handle exactly like a simulator
// round), a listener feeds received envelopes into its mailbox, and
// per-peer writer goroutines deliver outbound envelopes best-effort —
// message loss on broken connections or saturated peer queues is
// exactly the fault model the epidemic protocols are built to absorb.
//
// The hot path is event-driven and never blocks the driver on the
// network:
//
//   - The driver appends outbound envelopes to bounded per-peer queues;
//     a dedicated writer goroutine per peer owns dialing, encoding
//     (the DDN1 binary codec in codec.go, the fabric's only wire format)
//     and flushing through a bufio writer — flushed on queue drain, not
//     per envelope, so one syscall carries a burst.
//   - Self-addressed envelopes go to a driver-owned slice, never the
//     mailbox: self-delivery is loss-free and allocation-cheap, exactly
//     like the simulator, and it is the per-client-op fast path (write
//     commands and read probes both start as self-sends).
//   - The driver drains its mailbox and request queue in bounded
//     batches per wake-up, then delivers the self-sends the batch
//     produced. The machine settles whatever a step completed inside
//     its own Tick and Handle, so the host has no post-step hook.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"datadroplets/internal/metrics"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/wire"
)

// The fabric's one configuration.
const (
	defaultTickInterval = 200 * time.Millisecond

	// peerQueueDepth bounds each peer's outbound queue. When a peer
	// stalls (dead, partitioned, or not reading), its queue fills and
	// further envelopes to it are dropped — load-shedding per peer, the
	// driver never blocks.
	peerQueueDepth = 4096
	// intakeBatch caps how many mailbox/request events the driver
	// dispatches per wake-up before delivering the batch's self-sends.
	intakeBatch = 256
	// writeTimeout bounds one batch write to a peer socket; past it the
	// connection is dropped and re-dialed.
	writeTimeout = 5 * time.Second

	mailboxDepth  = 4096
	requestsDepth = 1024

	dialTimeout   = 2 * time.Second
	redialBackoff = 500 * time.Millisecond

	// connBufSize sizes the per-connection bufio reader/writer.
	connBufSize = 32 << 10
	// maxRecycledBuf caps the frame buffer a connection keeps from one
	// frame to the next (the writer's encode scratch, the reader's body
	// buffer). A larger frame — a whole-cache DigestResp runs to tens of
	// MiB — gets a buffer of its own that dies with it, instead of
	// pinning its size per peer for the life of the connection.
	maxRecycledBuf = 1 << 20
)

// ErrStopped is returned by Do/Post after the host shut down.
var ErrStopped = errors.New("transport: host stopped")

// envelope is one delivered message with its sender.
type envelope struct {
	From node.ID
	Msg  any
}

// Peer maps a node ID to its TCP address.
type Peer struct {
	ID   node.ID
	Addr string
}

// Config assembles a Host.
type Config struct {
	// Self is this host's node ID; it must appear in Peers.
	Self node.ID
	// Peers is the full address book (static for this release; the
	// membership protocols tolerate stale entries by design).
	Peers []Peer
	// TickInterval is the wall-clock length of one protocol round.
	// Zero means 200ms.
	TickInterval time.Duration
	// Logger receives connection diagnostics; nil silences them.
	Logger *log.Logger
}

// Host runs one protocol machine over TCP.
type Host struct {
	cfg     Config
	machine sim.Machine

	// queueDepth and writeDeadline are peerQueueDepth and writeTimeout;
	// the in-package tests that need a shallow queue or a short
	// deadline overwrite them between NewHost and Start.
	queueDepth    int
	writeDeadline time.Duration

	listener net.Listener
	mailbox  chan envelope
	requests chan func(m sim.Machine, now sim.Round) []sim.Envelope

	// selfQ holds self-addressed envelopes awaiting dispatch. Owned by
	// the driver goroutine (and by Stop after the driver exits): self
	// delivery is loss-free by construction, unlike the old
	// mailbox-with-overflow-drop scheme.
	selfQ []envelope

	// senders is built once at Start (static peer set) and read-only
	// after; one writer goroutine per remote peer.
	senders map[node.ID]*peerSender

	mu      sync.Mutex
	inbound map[net.Conn]struct{}
	addrs   map[node.ID]string

	round    sim.Round
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Sent and Dropped count outbound envelopes; UnknownTags counts
	// inbound frames skipped for carrying a tag this build doesn't
	// know. Atomic: writer goroutines increment them while metrics
	// endpoints read them.
	Sent        metrics.Counter
	Dropped     metrics.Counter
	UnknownTags metrics.Counter
}

// NewHost wraps a machine. Call Start to begin serving.
func NewHost(cfg Config, m sim.Machine) (*Host, error) {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = defaultTickInterval
	}
	addrs := make(map[node.ID]string, len(cfg.Peers))
	var selfAddr string
	for _, p := range cfg.Peers {
		addrs[p.ID] = p.Addr
		if p.ID == cfg.Self {
			selfAddr = p.Addr
		}
	}
	if selfAddr == "" {
		return nil, errors.New("transport: self not in peer list")
	}
	return &Host{
		cfg:           cfg,
		machine:       m,
		queueDepth:    peerQueueDepth,
		writeDeadline: writeTimeout,
		mailbox:       make(chan envelope, mailboxDepth),
		requests:      make(chan func(sim.Machine, sim.Round) []sim.Envelope, requestsDepth),
		senders:       make(map[node.ID]*peerSender, len(cfg.Peers)),
		inbound:       make(map[net.Conn]struct{}),
		addrs:         addrs,
		done:          make(chan struct{}),
	}, nil
}

// QueueDepth reports the number of received envelopes waiting in the
// mailbox for the driver goroutine — the host's inbound backlog gauge.
func (h *Host) QueueDepth() int { return len(h.mailbox) }

// Addr returns the bound listen address (useful with ":0" configs).
func (h *Host) Addr() string {
	if h.listener == nil {
		return ""
	}
	return h.listener.Addr().String()
}

// Start binds the listener and launches the accept, driver and per-peer
// writer loops.
func (h *Host) Start() error {
	ln, err := net.Listen("tcp", h.addrs[h.cfg.Self])
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	h.listener = ln
	for _, p := range h.cfg.Peers {
		if p.ID == h.cfg.Self {
			continue
		}
		ps := newPeerSender(h, p.ID, p.Addr)
		h.senders[p.ID] = ps
		h.wg.Add(1)
		go ps.writeLoop()
	}
	h.wg.Add(2)
	go h.acceptLoop()
	go h.driverLoop()
	return nil
}

// Stop shuts the host down and waits for its goroutines. Idempotent.
// Requests accepted by Do/Post but not yet dispatched still run (with
// the machine quiescent, envelopes discarded), so no caller is left
// waiting on a closure that never executed.
func (h *Host) Stop() {
	h.stopOnce.Do(func() {
		close(h.done)
		if h.listener != nil {
			_ = h.listener.Close()
		}
		for _, ps := range h.senders {
			ps.stop()
		}
		h.mu.Lock()
		for c := range h.inbound {
			_ = c.Close()
		}
		h.mu.Unlock()
		h.wg.Wait()
		// The driver is gone; this goroutine is now the machine's sole
		// owner. Run stranded requests so their side effects (op
		// registration, ack channels) still happen.
		for {
			select {
			case f := <-h.requests:
				f(h.machine, h.round)
			default:
				return
			}
		}
	})
}

// Do runs f inside the driver goroutine — the only place machine state
// may be touched — and sends any envelopes f produces. It blocks until f
// has run or the host is stopped.
func (h *Host) Do(f func(m sim.Machine, now sim.Round) []sim.Envelope) error {
	ack := make(chan struct{})
	wrapped := func(m sim.Machine, now sim.Round) []sim.Envelope {
		defer close(ack)
		return f(m, now)
	}
	select {
	case h.requests <- wrapped:
		<-ack
		return nil
	case <-h.done:
		return ErrStopped
	}
}

// Post enqueues f to run inside the driver goroutine without waiting
// for it — the asynchronous sibling of Do. The requests channel is
// buffered, so at steady state Post is one channel send; it only blocks
// when the driver is more than a full buffer behind.
func (h *Host) Post(f func(m sim.Machine, now sim.Round) []sim.Envelope) error {
	select {
	case <-h.done:
		return ErrStopped
	default:
	}
	select {
	case h.requests <- f:
		return nil
	case <-h.done:
		return ErrStopped
	}
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.listener.Accept()
		if err != nil {
			select {
			case <-h.done:
				return
			default:
				h.logf("accept: %v", err)
				return
			}
		}
		h.wg.Add(1)
		go h.readLoop(c)
	}
}

// readLoop consumes one inbound DDN1 connection: preamble (magic +
// sender ID, once), then length-delimited frames. Unknown message tags
// skip the frame and keep the connection — the mixed-version rule; a
// malformed body inside a known tag is a codec violation and drops the
// connection.
func (h *Host) readLoop(c net.Conn) {
	defer h.wg.Done()
	h.mu.Lock()
	h.inbound[c] = struct{}{}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.inbound, c)
		h.mu.Unlock()
		_ = c.Close()
	}()
	br := bufio.NewReaderSize(c, connBufSize)
	from, err := wire.ReadNodePreamble(br)
	if err != nil {
		return
	}
	var buf []byte
	var cur wire.Cursor
	for {
		body, err := wire.ReadNodeFrame(br, buf)
		if err != nil {
			return // peer closed or garbage: epidemic protocols tolerate loss
		}
		buf = nil
		if cap(body) <= maxRecycledBuf {
			buf = body[:0]
		}
		msg, err := decode(&cur, body)
		if err != nil {
			if errors.Is(err, errUnknownTag) {
				h.UnknownTags.Inc()
				continue
			}
			h.logf("read from %v: %v", from, err)
			return
		}
		select {
		case h.mailbox <- envelope{From: node.ID(from), Msg: msg}:
		case <-h.done:
			return
		}
	}
}

// driverLoop is the machine's single owner. Each wake-up dispatches one
// blocking event plus a bounded non-blocking drain of further
// mailbox/request events, then delivers any self-sends those produced.
func (h *Host) driverLoop() {
	defer h.wg.Done()
	ticker := time.NewTicker(h.cfg.TickInterval)
	defer ticker.Stop()
	h.send(h.machine.Start(h.round))
	h.deliverSelf()
	for {
		select {
		case <-h.done:
			return
		case <-ticker.C:
			h.round++
			h.send(h.machine.Tick(h.round))
		case env := <-h.mailbox:
			h.send(h.machine.Handle(h.round, env.From, env.Msg))
		case f := <-h.requests:
			h.send(f(h.machine, h.round))
		}
		for n := 1; n < intakeBatch; n++ {
			select {
			case env := <-h.mailbox:
				h.send(h.machine.Handle(h.round, env.From, env.Msg))
				continue
			case f := <-h.requests:
				h.send(f(h.machine, h.round))
				continue
			default:
			}
			break
		}
		h.deliverSelf()
	}
}

// deliverSelf dispatches queued self-envelopes until quiescent,
// including ones the dispatched handlers themselves produce — same-round
// self delivery, exactly like the simulator. Driver-only.
func (h *Host) deliverSelf() {
	for i := 0; i < len(h.selfQ); i++ {
		env := h.selfQ[i]
		h.selfQ[i] = envelope{}
		h.send(h.machine.Handle(h.round, env.From, env.Msg))
	}
	h.selfQ = h.selfQ[:0]
}

// send routes envelopes: self-sends to the driver-owned queue
// (loss-free), remote sends to the peer's bounded writer queue
// (drop-new when full — per-peer load shedding, the driver never blocks
// on a socket).
func (h *Host) send(envs []sim.Envelope) {
	for _, e := range envs {
		if e.To == h.cfg.Self {
			h.selfQ = append(h.selfQ, envelope{From: h.cfg.Self, Msg: e.Msg})
			continue
		}
		ps := h.senders[e.To]
		if ps == nil {
			h.Dropped.Inc()
			continue
		}
		if !ps.enqueue(e.Msg) {
			h.Dropped.Inc()
		}
	}
}

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logger != nil {
		h.cfg.Logger.Printf(format, args...)
	}
}

// peerSender owns everything about one peer's outbound path: the
// bounded queue the driver appends to, and the writer goroutine that
// dials, encodes (DDN1), and flushes. The lock covers only the queue
// and lifecycle flags — never a socket write — so enqueue is O(1) for
// the driver no matter what the network is doing.
type peerSender struct {
	h    *Host
	id   node.ID
	addr string

	mu     sync.Mutex
	cond   sync.Cond
	queue  []any
	closed bool
	conn   net.Conn // under mu so stop() can unblock a stalled write

	// Writer-goroutine-owned state.
	bw       *bufio.Writer
	scratch  []byte
	nextDial time.Time
}

func newPeerSender(h *Host, id node.ID, addr string) *peerSender {
	ps := &peerSender{h: h, id: id, addr: addr}
	ps.cond.L = &ps.mu
	return ps
}

// enqueue appends one message for the writer; it reports false when the
// queue is full or the sender is stopped (the message is shed).
func (ps *peerSender) enqueue(msg any) bool {
	ps.mu.Lock()
	if ps.closed || len(ps.queue) >= ps.h.queueDepth {
		ps.mu.Unlock()
		return false
	}
	ps.queue = append(ps.queue, msg)
	ps.mu.Unlock()
	ps.cond.Broadcast()
	return true
}

// stop closes the sender; a writer stalled inside a socket write is
// unblocked by the connection close.
func (ps *peerSender) stop() {
	ps.mu.Lock()
	ps.closed = true
	c := ps.conn
	ps.conn = nil
	ps.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	ps.cond.Broadcast()
}

func (ps *peerSender) writeLoop() {
	defer ps.h.wg.Done()
	var spare []any
	for {
		batch, ok := ps.take(spare)
		if !ok {
			return
		}
		ps.writeBatch(batch)
		for i := range batch {
			batch[i] = nil // release references; the batch buffer is recycled
		}
		spare = batch[:0]
	}
}

// take blocks until messages are queued, then claims the whole queue by
// buffer swap (the recycled spare becomes the new queue).
func (ps *peerSender) take(spare []any) ([]any, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.queue) == 0 && !ps.closed {
		ps.cond.Wait()
	}
	if len(ps.queue) == 0 {
		return nil, false
	}
	batch := ps.queue
	ps.queue = spare
	return batch, true
}

// writeBatch encodes and writes one claimed batch, flushing only if the
// queue is empty afterwards (more queued means another batch follows
// immediately and will share the flush).
func (ps *peerSender) writeBatch(batch []any) {
	if !ps.ensureConn() {
		ps.h.Dropped.Add(int64(len(batch)))
		return
	}
	c := ps.connRef()
	if c == nil { // stop() raced us; the batch is shed
		ps.h.Dropped.Add(int64(len(batch)))
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(ps.h.writeDeadline))
	for i, msg := range batch {
		body, ok := appendMessage(ps.scratch[:0], msg)
		if !ok {
			// A programming error, not a network fault: the machine sent
			// something outside the protocol's message set.
			ps.h.logf("peer %v: %T has no DDN1 encoding, dropped", ps.id, msg)
			ps.h.Dropped.Inc()
			continue
		}
		if cap(body) > cap(ps.scratch) && cap(body) <= maxRecycledBuf {
			ps.scratch = body
		}
		if err := wire.WriteNodeFrame(ps.bw, body); err != nil {
			ps.h.Dropped.Add(int64(len(batch) - i))
			ps.dropConn()
			return
		}
		ps.h.Sent.Inc()
	}
	ps.mu.Lock()
	drained := len(ps.queue) == 0
	ps.mu.Unlock()
	if drained {
		if err := ps.bw.Flush(); err != nil {
			ps.dropConn()
		}
	}
}

// ensureConn makes sure a dialed connection with a written preamble is
// ready, honouring the redial backoff so a dead peer costs one dial
// attempt per backoff window, not per batch.
func (ps *peerSender) ensureConn() bool {
	if ps.connRef() != nil {
		return true
	}
	if !ps.nextDial.IsZero() && time.Now().Before(ps.nextDial) {
		return false
	}
	c, err := net.DialTimeout("tcp", ps.addr, dialTimeout)
	if err != nil {
		ps.h.logf("peer %v: dial: %v", ps.id, err)
		ps.nextDial = time.Now().Add(redialBackoff)
		return false
	}
	bw := bufio.NewWriterSize(c, connBufSize)
	if err := wire.WriteNodePreamble(bw, uint64(ps.h.cfg.Self)); err != nil {
		_ = c.Close()
		ps.nextDial = time.Now().Add(redialBackoff)
		return false
	}
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		_ = c.Close()
		return false
	}
	ps.conn = c
	ps.mu.Unlock()
	ps.bw = bw
	ps.nextDial = time.Time{}
	return true
}

func (ps *peerSender) connRef() net.Conn {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.conn
}

// dropConn discards the current connection after a write failure; the
// next batch re-dials (post-backoff).
func (ps *peerSender) dropConn() {
	ps.mu.Lock()
	c := ps.conn
	ps.conn = nil
	ps.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	ps.bw = nil
	ps.nextDial = time.Now().Add(redialBackoff)
}
