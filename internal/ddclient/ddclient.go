// Package ddclient is the Go client for the DataDroplets server's DDB1
// wire protocol (docs/PROTOCOL.md). One Client owns one TCP connection
// and pipelines requests over it: Do queues a request and returns its
// Future at once, and a single reader goroutine settles futures in
// request order — the protocol guarantees the n-th response answers the
// n-th request, so no request IDs are needed. A queued request is
// written together with whatever else is queued by the time the
// connection's writer wakes, so a burst of requests leaves in one
// write(2), and Do never waits behind a syscall. The pipeline window is
// bounded client-side too: when Window futures are outstanding, Do
// blocks until the oldest settles, mirroring the server's per-connection
// backpressure so a fast issuer cannot buffer unboundedly.
//
// The synchronous helpers (Put, Get, Del, ...) are Do + Wait; use Do
// directly to keep many requests in flight from one goroutine.
package ddclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// Sentinel errors mapped from response statuses.
var (
	// ErrNotFound is a GET miss (no tuple, or a tombstone).
	ErrNotFound = errors.New("ddclient: key not found")
	// ErrTimeout means the server gave up on the op at its deadline; the
	// op may or may not have taken effect (a timed-out PUT can still
	// disseminate).
	ErrTimeout = errors.New("ddclient: operation timed out server-side")
	// ErrBusy means the server refused the op under load or drain.
	ErrBusy = errors.New("ddclient: server busy or draining")
	// ErrClosed means the connection is gone; outstanding and future
	// requests fail.
	ErrClosed = errors.New("ddclient: connection closed")
)

// ServerError is a StatusErr reply: the server rejected this request
// (bad opcode, malformed arguments) but the connection stays usable.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "ddclient: server error: " + e.Msg }

// Options tunes a connection.
type Options struct {
	// Window bounds pipelined requests in flight. Zero means 64. It
	// should not exceed the server's -window or Do may block on the
	// server instead of locally.
	Window int
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration
}

// Client is one pipelined protocol connection. Methods are safe for
// concurrent use; responses are matched to requests by order.
type Client struct {
	conn net.Conn
	// slots holds one token per outstanding request; its capacity is the
	// window. Do takes a token before queueing, the reader gives it back
	// once the response is decoded.
	slots chan struct{}

	wmu sync.Mutex // guards buf and the send side of pending
	buf []byte     // encoded frames not yet handed to the flusher
	// kick wakes the flusher. One slot: a Do that finds it full knows a
	// wake-up is already due and will see its frame.
	kick chan struct{}

	pending chan *Future // FIFO of unanswered requests; cap = window

	closeOnce sync.Once
	closed    chan struct{}
	loops     sync.WaitGroup // the reader and the flusher
	errMu     sync.Mutex
	err       error // first fatal transport error
}

// maxKeptBuf bounds the write buffer the flusher keeps for reuse: a
// burst of large values grows it, and the buffer is let go after it.
const maxKeptBuf = 1 << 20

// Future is one in-flight request. Wait blocks until the response
// arrives (or the connection dies) and maps the status to the sentinel
// errors above.
type Future struct {
	c       *Client
	done    chan struct{}
	resp    wire.Response
	byteErr error // transport-level failure
}

// Wait blocks for the raw response frame. Most callers want the typed
// helpers on Client instead. When the connection dies before the
// response arrives, Wait returns the fatal transport error; the request
// may still have taken effect server-side.
func (f *Future) Wait() (wire.Response, error) {
	select {
	case <-f.done:
		return f.resp, f.byteErr
	case <-f.c.closed:
		// The reader may have settled f in the same instant; prefer the
		// real response if it is there.
		select {
		case <-f.done:
			return f.resp, f.byteErr
		default:
			return wire.Response{}, f.c.fatalErr()
		}
	}
}

// Dial connects, sends the protocol magic, and starts the reader and
// the flusher.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c, err := newClient(conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// newClient runs the protocol over an established connection.
func newClient(conn net.Conn, opts Options) (*Client, error) {
	if opts.Window <= 0 {
		opts.Window = 64
	}
	if err := wire.WriteMagic(conn); err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		slots:   make(chan struct{}, opts.Window),
		kick:    make(chan struct{}, 1),
		pending: make(chan *Future, opts.Window),
		closed:  make(chan struct{}),
	}
	c.loops.Add(2)
	go c.readLoop()
	go c.flushLoop()
	return c, nil
}

// Close tears the connection down and returns once the client's own
// goroutines have exited. Outstanding futures settle with ErrClosed (or
// the first transport error observed). Idempotent.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	c.loops.Wait()
	return nil
}

// fail records the first fatal error and closes the connection once.
func (c *Client) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.closeOnce.Do(func() {
		close(c.closed)
		_ = c.conn.Close()
	})
}

func (c *Client) fatalErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// readLoop settles futures in FIFO order as response frames arrive and
// returns each one's window token.
func (c *Client) readLoop() {
	defer c.loops.Done()
	r := bufio.NewReader(c.conn)
	for {
		var f *Future
		select {
		case f = <-c.pending:
		case <-c.closed:
			c.drainPending()
			return
		}
		if err := wire.DecodeResponse(r, &f.resp); err != nil {
			c.fail(fmt.Errorf("ddclient: read: %w", err))
			f.byteErr = c.fatalErr()
			close(f.done)
			c.drainPending()
			return
		}
		close(f.done)
		<-c.slots
	}
}

// drainPending fails every queued future after the connection dies.
func (c *Client) drainPending() {
	err := c.fatalErr()
	for {
		select {
		case f := <-c.pending:
			f.byteErr = err
			close(f.done)
		default:
			return
		}
	}
}

// flushLoop writes whatever Do has queued, once per wake-up: it swaps
// the queued frames for its spare buffer under the lock and writes them
// outside it, so the requests queued while one write is in progress
// all leave in the next.
func (c *Client) flushLoop() {
	defer c.loops.Done()
	var spare []byte
	for {
		select {
		case <-c.kick:
		case <-c.closed:
			return
		}
		c.wmu.Lock()
		out := c.buf
		c.buf = spare[:0]
		c.wmu.Unlock()
		// The spare is always the slice just taken, written or not: Do
		// appends to the other one from here on.
		spare = out
		if cap(spare) > maxKeptBuf {
			spare = nil
		}
		if len(out) == 0 {
			continue
		}
		if _, err := c.conn.Write(out); err != nil {
			c.fail(fmt.Errorf("ddclient: write: %w", err))
			return
		}
	}
}

// Do queues one request and returns its Future. It blocks only while
// the pipeline window is full. The request is encoded before Do
// returns, so the caller may reuse req.Value at once; the flusher
// writes it together with whatever else is queued by then. Concurrent
// callers are serialised on a short lock, which fixes the
// request/response order. A key or value over the protocol's limits is
// refused with the wire error and queues nothing.
func (c *Client) Do(req *wire.Request) (*Future, error) {
	// The window token comes first: a Do blocked on the window while
	// holding the lock would stop the flusher from sending the requests
	// whose responses free it.
	select {
	case c.slots <- struct{}{}:
	case <-c.closed:
		return nil, c.fatalErr()
	}
	f := &Future{c: c, done: make(chan struct{})}
	c.wmu.Lock()
	select {
	case <-c.closed:
		c.wmu.Unlock()
		return nil, c.fatalErr()
	default:
	}
	buf, err := wire.AppendRequest(c.buf, req)
	if err != nil {
		c.wmu.Unlock()
		<-c.slots
		return nil, err
	}
	c.buf = buf
	// Enqueued in the same critical section as the frame, so the reader
	// knows every request before its response can arrive. The token
	// taken above guarantees room.
	c.pending <- f
	c.wmu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return f, nil
}

// call is Do + Wait + status mapping shared by the sync helpers.
func (c *Client) call(req *wire.Request) (wire.Response, error) {
	f, err := c.Do(req)
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := f.Wait()
	if err != nil {
		return wire.Response{}, err
	}
	switch resp.Status {
	case wire.StatusNotFound:
		return resp, ErrNotFound
	case wire.StatusTimeout:
		return resp, ErrTimeout
	case wire.StatusBusy:
		return resp, ErrBusy
	case wire.StatusErr:
		return resp, &ServerError{Msg: string(resp.Payload)}
	default:
		return resp, nil
	}
}

// Put stores value under key and returns the assigned write version.
func (c *Client) Put(key string, value []byte) (tuple.Version, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpPut, Key: key, Value: value})
	if err != nil {
		return tuple.Version{}, err
	}
	return tuple.ParseVersion(resp.Payload)
}

// Get fetches the value stored under key. A miss is ErrNotFound.
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	// Copy: resp.Payload aliases the future's buffer only until here,
	// but callers keep results indefinitely.
	out := make([]byte, len(resp.Payload))
	copy(out, resp.Payload)
	return out, nil
}

// Del removes key (writes a tombstone) and returns its version.
func (c *Client) Del(key string) (tuple.Version, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpDel, Key: key})
	if err != nil {
		return tuple.Version{}, err
	}
	return tuple.ParseVersion(resp.Payload)
}

// NEstimate returns the server's current network-size estimate.
func (c *Client) NEstimate() (float64, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpNEst})
	if err != nil {
		return 0, err
	}
	return wire.ParseFloat64(resp.Payload)
}

// Len returns the number of tuples in the server's local store.
func (c *Client) Len() (uint64, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpLen})
	if err != nil {
		return 0, err
	}
	return wire.ParseUint64(resp.Payload)
}

// Stats returns the server's metrics snapshot as JSON.
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(resp.Payload))
	copy(out, resp.Payload)
	return out, nil
}

// Ping round-trips an empty frame; useful as a health check.
func (c *Client) Ping() error {
	_, err := c.call(&wire.Request{Op: wire.OpPing})
	return err
}
