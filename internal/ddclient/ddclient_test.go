package ddclient_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/node"
	"datadroplets/internal/server"
	"datadroplets/internal/transport"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// freeAddr picks a free loopback address by binding and closing.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// startNode boots a single-node in-process server and dials it.
func startNode(t *testing.T, opts ddclient.Options) *ddclient.Client {
	t.Helper()
	srv, err := server.New(server.Config{
		Self:         1,
		Peers:        []transport.Peer{{ID: node.ID(1), Addr: freeAddr(t)}},
		ClientAddr:   "127.0.0.1:0",
		TickInterval: 20 * time.Millisecond,
		OpTimeout:    2 * time.Second,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := ddclient.Dial(srv.ClientAddr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRoundTripAgainstServer(t *testing.T) {
	c := startNode(t, ddclient.Options{})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	v1, err := c.Put("k", []byte("one"))
	if err != nil || v1.IsZero() {
		t.Fatalf("put = %v, %v", v1, err)
	}
	v2, err := c.Put("k", []byte("two"))
	if err != nil || !v1.Less(v2) {
		t.Fatalf("second put = %v, %v; want a version after %v", v2, err, v1)
	}
	if got, err := c.Get("k"); err != nil || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("get = %q, %v", got, err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d, %v; want 1", n, err)
	}
	if est, err := c.NEstimate(); err != nil || est <= 0 {
		t.Fatalf("nest = %v, %v", est, err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st server.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats json: %v\n%s", err, raw)
	}
	if st.Node != "n0001" || st.StoreLen != 1 || st.Put.Count != 2 {
		t.Fatalf("stats = %+v", st)
	}

	if _, err := c.Get("absent"); !errors.Is(err, ddclient.ErrNotFound) {
		t.Fatalf("get of an absent key: %v, want ErrNotFound", err)
	}
	v3, err := c.Del("k")
	if err != nil || !v2.Less(v3) {
		t.Fatalf("del = %v, %v; want a version after %v", v3, err, v2)
	}
	if _, err := c.Get("k"); !errors.Is(err, ddclient.ErrNotFound) {
		t.Fatalf("get after del: %v, want ErrNotFound", err)
	}
}

// TestPipelinedFuturesSettleInRequestOrder issues a burst several times
// the window from one goroutine: Do must block on the window rather than
// fail, and since responses are matched to requests by order alone, the
// n-th future must carry the n-th request's answer.
func TestPipelinedFuturesSettleInRequestOrder(t *testing.T) {
	c := startNode(t, ddclient.Options{Window: 4})
	const burst = 32
	type issued struct {
		f   *ddclient.Future
		get bool
		val []byte
	}
	var ops []issued
	for i := 0; i < burst; i++ {
		val := []byte(fmt.Sprintf("v%02d", i))
		pf, err := c.Do(&wire.Request{Op: wire.OpPut, Key: "pipe", Value: val})
		if err != nil {
			t.Fatalf("do put %d: %v", i, err)
		}
		gf, err := c.Do(&wire.Request{Op: wire.OpGet, Key: "pipe"})
		if err != nil {
			t.Fatalf("do get %d: %v", i, err)
		}
		ops = append(ops, issued{f: pf, val: val}, issued{f: gf, get: true, val: val})
	}
	var lastSeq uint64
	for i, op := range ops {
		resp, err := op.f.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if op.get {
			// A pipelined GET answers in its slot, after the PUT before
			// it: it sees that PUT's value.
			if resp.Status != wire.StatusValue || !bytes.Equal(resp.Payload, op.val) {
				t.Fatalf("op %d (get): status %v payload %q, want %q", i, resp.Status, resp.Payload, op.val)
			}
			continue
		}
		v, err := tuple.ParseVersion(resp.Payload)
		if resp.Status != wire.StatusOK || err != nil {
			t.Fatalf("op %d (put): status %v, %v", i, resp.Status, err)
		}
		if v.Seq <= lastSeq {
			t.Fatalf("op %d (put): version seq %d after %d — responses out of request order", i, v.Seq, lastSeq)
		}
		lastSeq = v.Seq
	}
}

func TestDialFailure(t *testing.T) {
	addr := freeAddr(t) // nothing listens here any more
	c, err := ddclient.Dial(addr, ddclient.Options{DialTimeout: time.Second})
	if err == nil {
		_ = c.Close()
		t.Fatalf("dial %s succeeded with no listener", addr)
	}
}

// TestCloseSettlesInFlightFutures parks requests on a peer that reads
// but never answers, then closes the client: every outstanding future,
// every Do still blocked on the window, and every later Do must come
// back with ErrClosed instead of hanging.
func TestCloseSettlesInFlightFutures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var silent sync.WaitGroup
	silent.Add(1)
	go func() {
		defer silent.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // until the client hangs up
	}()

	const window = 4
	c, err := ddclient.Dial(ln.Addr().String(), ddclient.Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var futures []*ddclient.Future
	for i := 0; i < window; i++ {
		f, err := c.Do(&wire.Request{Op: wire.OpGet, Key: "never"})
		if err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		futures = append(futures, f)
	}
	// Issuers past the window: each either blocks in Do or gets a future
	// that will never be answered.
	const extra = 3
	results := make(chan error, extra+len(futures))
	for i := 0; i < extra; i++ {
		go func() {
			f, err := c.Do(&wire.Request{Op: wire.OpPing})
			if err == nil {
				_, err = f.Wait()
			}
			results <- err
		}()
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, f := range futures {
		go func() {
			_, err := f.Wait()
			results <- err
		}()
	}
	hang := time.After(5 * time.Second)
	for i := 0; i < extra+len(futures); i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ddclient.ErrClosed) {
				t.Errorf("in-flight op settled with %v, want ErrClosed", err)
			}
		case <-hang:
			t.Fatalf("%d of %d in-flight ops still hanging after Close", extra+len(futures)-i, extra+len(futures))
		}
	}
	if _, err := c.Do(&wire.Request{Op: wire.OpPing}); !errors.Is(err, ddclient.ErrClosed) {
		t.Fatalf("Do after Close: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	silent.Wait()
}

// TestReusedValueBufferArrivesIntact has several goroutines share one
// client and pipeline Puts the way a bulk loader does: each rewrites the
// same value buffer right after every Do. Do copies the frame before it
// returns and the flusher never writes the buffer Do is appending to,
// so every key must read back its own value.
func TestReusedValueBufferArrivesIntact(t *testing.T) {
	c := startNode(t, ddclient.Options{})
	const (
		writers = 4
		perW    = 2000
	)
	key := func(g, i int) string { return fmt.Sprintf("reuse-%d-%04d", g, i) }
	fill := func(buf []byte, g, i int) {
		for j := range buf {
			buf[j] = byte(g*131 + i*7 + j)
		}
	}
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		go func() {
			buf := make([]byte, 256)
			futs := make([]*ddclient.Future, 0, perW)
			for i := 0; i < perW; i++ {
				fill(buf, g, i)
				f, err := c.Do(&wire.Request{Op: wire.OpPut, Key: key(g, i), Value: buf})
				if err != nil {
					errs <- fmt.Errorf("put %s: %w", key(g, i), err)
					return
				}
				futs = append(futs, f)
			}
			for i, f := range futs {
				if resp, err := f.Wait(); err != nil || resp.Status != wire.StatusOK {
					errs <- fmt.Errorf("put %s: status %v, %v", key(g, i), resp.Status, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, 256)
	for g := 0; g < writers; g++ {
		futs := make([]*ddclient.Future, perW)
		for i := range futs {
			f, err := c.Do(&wire.Request{Op: wire.OpGet, Key: key(g, i)})
			if err != nil {
				t.Fatalf("get %s: %v", key(g, i), err)
			}
			futs[i] = f
		}
		for i, f := range futs {
			resp, err := f.Wait()
			fill(want, g, i)
			if err != nil || resp.Status != wire.StatusValue || !bytes.Equal(resp.Payload, want) {
				t.Fatalf("get %s: status %v, %v; value intact = %v", key(g, i), resp.Status, err, bytes.Equal(resp.Payload, want))
			}
		}
	}
}

// TestPeerDropFailsPipeline has the peer hang up with requests in
// flight: every outstanding future and the next Do must fail with the
// transport error, promptly, rather than hang or report ErrClosed.
func TestPeerDropFailsPipeline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Take the magic and the first request, then drop the line.
		var req wire.Request
		r := bufio.NewReader(conn)
		if wire.ReadMagic(r) == nil {
			_ = wire.DecodeRequest(r, &req)
		}
		_ = conn.Close()
	}()
	c, err := ddclient.Dial(ln.Addr().String(), ddclient.Options{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var futures []*ddclient.Future
	for i := 0; i < 8; i++ {
		f, err := c.Do(&wire.Request{Op: wire.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		if err != nil {
			break // the drop can already have been seen
		}
		futures = append(futures, f)
	}
	if len(futures) == 0 {
		t.Fatal("the first Do failed before the peer could drop")
	}
	results := make(chan error, len(futures))
	for _, f := range futures {
		go func() {
			_, err := f.Wait()
			results <- err
		}()
	}
	hang := time.After(2 * time.Second)
	for i := range futures {
		select {
		case err := <-results:
			if err == nil || errors.Is(err, ddclient.ErrClosed) {
				t.Fatalf("future settled with %v, want the transport error", err)
			}
		case <-hang:
			t.Fatalf("%d of %d futures still pending 2 s after the peer dropped", len(futures)-i, len(futures))
		}
	}
	if _, err := c.Do(&wire.Request{Op: wire.OpPing}); err == nil || errors.Is(err, ddclient.ErrClosed) {
		t.Fatalf("Do after the drop: %v, want the transport error", err)
	}
}

// TestCloseLeavesNoGoroutine checks that the reader and the flusher are
// gone once Close returns, whether the client was idle or busy.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	c := startNode(t, ddclient.Options{})
	for i := 0; i < 100; i++ {
		if _, err := c.Do(&wire.Request{Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "ddclient.(*Client)") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client goroutines still running after Close:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
