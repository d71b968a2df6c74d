package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/node"
	"datadroplets/internal/transport"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// reservePorts picks n free loopback addresses by binding and closing.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

// startCluster boots n servers on loopback and returns them. A port
// reservePorts picked can be taken by another process before Start binds
// it, so a boot that fails closes every server it started and retries on
// fresh addresses, up to 5 times.
func startCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) []*Server {
	t.Helper()
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var servers []*Server
		if servers, err = bootCluster(t, n, tweak); err == nil {
			for _, srv := range servers {
				t.Cleanup(srv.Close)
			}
			return servers
		}
	}
	t.Fatal(err)
	return nil
}

// bootCluster is one attempt of startCluster: on an error, no server it
// started is left running.
func bootCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) ([]*Server, error) {
	gossip := reservePorts(t, n)
	peers := make([]transport.Peer, n)
	for i := range peers {
		peers[i] = transport.Peer{ID: node.ID(i + 1), Addr: gossip[i]}
	}
	servers := make([]*Server, 0, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Self:         node.ID(i + 1),
			Peers:        peers,
			ClientAddr:   "127.0.0.1:0",
			TickInterval: 20 * time.Millisecond,
			OpTimeout:    2 * time.Second,
			Seed:         int64(i + 1),
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		srv, err := New(cfg)
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			for _, started := range servers {
				started.Close()
			}
			return nil, fmt.Errorf("boot node %d: %w", i+1, err)
		}
		servers = append(servers, srv)
	}
	return servers, nil
}

func dial(t *testing.T, srv *Server) *ddclient.Client {
	t.Helper()
	c, err := ddclient.Dial(srv.ClientAddr(), ddclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClusterPutGetDel drives a real 3-node cluster through a client
// against every node: a write through one node becomes readable through
// the others, and a delete tombstones it everywhere.
func TestClusterPutGetDel(t *testing.T) {
	servers := startCluster(t, 3, nil)
	clients := make([]*ddclient.Client, len(servers))
	for i, srv := range servers {
		clients[i] = dial(t, srv)
		if err := clients[i].Ping(); err != nil {
			t.Fatalf("ping node %d: %v", i+1, err)
		}
	}

	if _, err := clients[0].Put("user:1", []byte("alice")); err != nil {
		t.Fatalf("put: %v", err)
	}
	// The write disseminates epidemically; every node must serve it.
	for i, c := range clients {
		val := eventuallyGet(t, c, "user:1")
		if !bytes.Equal(val, []byte("alice")) {
			t.Fatalf("node %d: got %q", i+1, val)
		}
	}

	if _, err := clients[2].Del("user:1"); err != nil {
		t.Fatalf("del: %v", err)
	}
	for i, c := range clients {
		if !eventuallyMiss(t, c, "user:1") {
			t.Fatalf("node %d still serves deleted key", i+1)
		}
	}
}

// eventuallyGet polls until the key resolves to a value (dissemination
// is asynchronous) or the deadline passes.
func eventuallyGet(t *testing.T, c *ddclient.Client, key string) []byte {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		val, err := c.Get(key)
		if err == nil {
			return val
		}
		if !errors.Is(err, ddclient.ErrNotFound) && !errors.Is(err, ddclient.ErrTimeout) {
			t.Fatalf("get %q: %v", key, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("get %q: still missing at deadline (%v)", key, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// eventuallyMiss polls until the key reads as not-found.
func eventuallyMiss(t *testing.T, c *ddclient.Client, key string) bool {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		_, err := c.Get(key)
		if errors.Is(err, ddclient.ErrNotFound) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestPipelinedResponsesInOrder fires a deep pipeline of writes and
// reads over one connection and checks the responses land in request
// order: versions of successive PUTs to one key must be strictly
// increasing in response order, and each interleaved GET must observe
// the preceding PUT of the pipeline (the connection is served FIFO).
func TestPipelinedResponsesInOrder(t *testing.T) {
	servers := startCluster(t, 1, nil)
	c := dial(t, servers[0])

	const depth = 200
	type exp struct {
		fut *ddclient.Future
		op  wire.Op
		i   int
	}
	futures := make([]exp, 0, 2*depth)
	for i := 0; i < depth; i++ {
		put, err := c.Do(&wire.Request{Op: wire.OpPut, Key: "pipeline", Value: fmt.Appendf(nil, "v%03d", i)})
		if err != nil {
			t.Fatalf("submit put %d: %v", i, err)
		}
		futures = append(futures, exp{put, wire.OpPut, i})
		get, err := c.Do(&wire.Request{Op: wire.OpGet, Key: "pipeline"})
		if err != nil {
			t.Fatalf("submit get %d: %v", i, err)
		}
		futures = append(futures, exp{get, wire.OpGet, i})
	}

	var lastSeq uint64
	for _, e := range futures {
		resp, err := e.fut.Wait()
		if err != nil {
			t.Fatalf("op %d (%v): %v", e.i, e.op, err)
		}
		switch e.op {
		case wire.OpPut:
			if resp.Status != wire.StatusOK {
				t.Fatalf("put %d: status %v", e.i, resp.Status)
			}
			v, err := tuple.ParseVersion(resp.Payload)
			if err != nil {
				t.Fatalf("put %d: %v", e.i, err)
			}
			if v.Seq <= lastSeq {
				t.Fatalf("put %d: version %d not after %d — responses out of order", e.i, v.Seq, lastSeq)
			}
			lastSeq = v.Seq
		case wire.OpGet:
			if resp.Status != wire.StatusValue {
				t.Fatalf("get %d: status %v", e.i, resp.Status)
			}
			want := fmt.Sprintf("v%03d", e.i)
			if string(resp.Payload) != want {
				t.Fatalf("get %d: read %q, want %q — pipeline order violated", e.i, resp.Payload, want)
			}
		}
	}
}

// TestBackpressureWindow pushes a pipeline much deeper than the server
// window; the server must stop reading rather than buffer unboundedly,
// and every request must still get its response.
func TestBackpressureWindow(t *testing.T) {
	servers := startCluster(t, 1, func(_ int, cfg *Config) { cfg.Window = 4 })
	c, err := ddclient.Dial(servers[0].ClientAddr(), ddclient.Options{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const depth = 256
	futs := make([]*ddclient.Future, depth)
	for i := range futs {
		f, err := c.Do(&wire.Request{Op: wire.OpPut, Key: fmt.Sprintf("bp:%d", i), Value: []byte("x")})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		resp, err := f.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("op %d: status %v", i, resp.Status)
		}
	}
}

// TestConnLimitBusy verifies connections beyond MaxConns are answered
// with BUSY instead of hanging or being silently dropped.
func TestConnLimitBusy(t *testing.T) {
	servers := startCluster(t, 1, func(_ int, cfg *Config) { cfg.MaxConns = 1 })
	first := dial(t, servers[0])
	if err := first.Ping(); err != nil {
		t.Fatalf("first conn: %v", err)
	}
	second, err := ddclient.Dial(servers[0].ClientAddr(), ddclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Ping(); !errors.Is(err, ddclient.ErrBusy) {
		t.Fatalf("second conn ping: err = %v, want ErrBusy", err)
	}
}

// TestMetaOps exercises LEN, NEST, STATS and the stats JSON shape.
func TestMetaOps(t *testing.T) {
	servers := startCluster(t, 1, nil)
	c := dial(t, servers[0])
	for i := 0; i < 5; i++ {
		if _, err := c.Put(fmt.Sprintf("meta:%d", i), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// The node's own writes are cached at the version it sequenced; a
	// key nobody wrote reads through the fabric.
	for i := 0; i < 5; i++ {
		if _, err := c.Get(fmt.Sprintf("meta:%d", i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if _, err := c.Get("meta:absent"); !errors.Is(err, ddclient.ErrNotFound) {
		t.Fatalf("get of an absent key: %v, want not found", err)
	}
	n, err := c.Len()
	if err != nil || n != 5 {
		t.Fatalf("len = %d, %v; want 5", n, err)
	}
	est, err := c.NEstimate()
	if err != nil || est <= 0 {
		t.Fatalf("nest = %v, %v", est, err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats json: %v\n%s", err, raw)
	}
	if st.Node != "n0001" || st.OpsTotal < 7 || st.StoreLen != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Put.Count != 5 || st.Put.P99 <= 0 {
		t.Fatalf("put latency summary = %+v", st.Put)
	}
	if st.SoftCacheHits != 5 || st.SoftLocalReads != 0 || st.SoftFabricReads != 1 || st.SoftSeqKeys != 5 {
		t.Fatalf("soft read split = %d cache, %d local, %d fabric; %d keys in the floor; want 5, 0, 1 and 5",
			st.SoftCacheHits, st.SoftLocalReads, st.SoftFabricReads, st.SoftSeqKeys)
	}
	// Five writes heard, their payloads (at least key + value each) held
	// for digest pulls, far below the budget.
	if st.GossipSeen != 5 || st.GossipCacheBytes < 5*len("meta:0v") || st.GossipCacheEvictions != 0 {
		t.Fatalf("gossip stats = seen %d, cache %d B, %d evictions", st.GossipSeen, st.GossipCacheBytes, st.GossipCacheEvictions)
	}
	// A lone node has nobody to relay to and hears nothing twice; the
	// traffic fields are reported all the same.
	for _, field := range []string{`"gossip_relayed":0`, `"gossip_dupes":0`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Fatalf("stats lack %s: %s", field, raw)
		}
	}
}

// TestRelayTrafficPerPut counts the rumor copies a 3-node cluster sends
// per Put. The fanout covers both peers, so the publisher's push reaches
// everyone and a pushed first receipt relays to nobody — 2 per Put, none
// of them duplicates (4 and 2 when a relay skipped only its pusher, 6 and
// 4 before that). A digest pull that lands while Puts are in flight turns
// a few pushes into duplicates and relays what it delivers to both peers,
// more the slower the host, so the bounds sit between the 2 000 and 0
// expected and the 4 000 and 2 000 of the pusher-only rule.
func TestRelayTrafficPerPut(t *testing.T) {
	servers := startCluster(t, 3, func(_ int, cfg *Config) { cfg.TickInterval = 10 * time.Millisecond })
	c := dial(t, servers[0])
	const puts = 1000
	futs := make([]*ddclient.Future, puts)
	for i := range futs {
		f, err := c.Do(&wire.Request{Op: wire.OpPut, Key: fmt.Sprintf("relay:%d", i), Value: []byte("v")})
		if err != nil {
			t.Fatalf("submit put %d: %v", i, err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		if resp, err := f.Wait(); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %v %v", i, resp.Status, err)
		}
	}
	// Sum STATS over the nodes until the relays in flight have landed: two
	// equal sums 50 ms (five rounds) apart.
	relayed, dupes := int64(-1), int64(-1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var r, d int64
		for _, srv := range servers {
			st, err := srv.StatsSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			r += st.GossipRelayed
			d += st.GossipDupes
		}
		settled := r == relayed && d == dupes
		relayed, dupes = r, d
		if settled || time.Now().After(deadline) {
			break
		}
	}
	t.Logf("%d Puts: %d rumor copies sent, %d duplicates", puts, relayed, dupes)
	if relayed < 2*puts || relayed > 3*puts || dupes > puts {
		t.Fatalf("%d Puts: %d rumor copies sent, %d duplicates; want [%d, %d] and at most %d", puts, relayed, dupes, 2*puts, 3*puts, puts)
	}
}

// TestUnknownOpcodeKeepsConnection sends an opcode from the future and
// expects a server error reply, with the connection still usable.
func TestUnknownOpcodeKeepsConnection(t *testing.T) {
	servers := startCluster(t, 1, nil)
	c := dial(t, servers[0])
	f, err := c.Do(&wire.Request{Op: wire.Op(200), Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Wait()
	if err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("unknown op: %v %v, want StatusErr", resp.Status, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after unknown op: %v", err)
	}
}

// TestGracefulShutdownDrains holds a genuinely slow op in flight — a
// read probing a dead peer pends until its deadline — and closes the
// server: the client must receive a response (TIMEOUT) before the
// connection dies, proving Close drains instead of dropping.
func TestGracefulShutdownDrains(t *testing.T) {
	dead := reservePorts(t, 1)[0]
	srv := startCluster(t, 1, func(_ int, cfg *Config) {
		// Peer 2 is never started: reads probing it stall.
		cfg.Peers = append(cfg.Peers[:1:1], transport.Peer{ID: 2, Addr: dead})
		cfg.OpTimeout = 400 * time.Millisecond
	})[0]

	c, err := ddclient.Dial(srv.ClientAddr(), ddclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Do(&wire.Request{Op: wire.OpGet, Key: "never-written"})
	if err != nil {
		t.Fatal(err)
	}
	// Close only once the op is genuinely in flight, or drain-refusal
	// (BUSY) races ahead of dispatch.
	waitDeadline := time.Now().Add(3 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("op never went in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	resp, err := f.Wait()
	if err != nil {
		t.Fatalf("in-flight op dropped at shutdown: %v", err)
	}
	if resp.Status != wire.StatusTimeout && resp.Status != wire.StatusNotFound {
		t.Fatalf("in-flight op status %v, want TIMEOUT or NOT_FOUND", resp.Status)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("%d ops in flight after Close", got)
	}
}

// TestDrainAnswersBusy checks ops arriving during drain are refused
// with BUSY, not silently dropped.
func TestDrainAnswersBusy(t *testing.T) {
	servers := startCluster(t, 1, nil)
	srv := servers[0]
	c := dial(t, srv)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The connection's read side is closed by drain; a new request fails
	// either with BUSY (frame read before close) or a dead connection.
	err := c.Ping()
	if err == nil {
		t.Fatal("ping succeeded after Close")
	}
}

// TestCloseLeaksNothing serves about a thousand pipelined ops on a
// 3-node loopback cluster, closes clients and servers, and requires the
// process to be back where it started within 2 s: no more goroutines
// (within 2) and, on Linux, no more open file descriptors (within 2)
// than before boot.
func TestCloseLeaksNothing(t *testing.T) {
	// The netpoller's own descriptors open on first use and stay open;
	// open them before taking the baseline.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		_ = ln.Close()
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	baseG, baseFD := runtime.NumGoroutine(), fds()

	servers := startCluster(t, 3, nil)
	var clients []*ddclient.Client
	var futures []*ddclient.Future
	for i, srv := range servers {
		c, err := ddclient.Dial(srv.ClientAddr(), ddclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		for j := 0; j < 333; j++ {
			req := wire.Request{Op: wire.OpPut, Key: fmt.Sprintf("leak/%d/%d", i, j%50), Value: []byte("v")}
			switch j % 3 {
			case 1:
				req = wire.Request{Op: wire.OpGet, Key: req.Key}
			case 2:
				req = wire.Request{Op: wire.OpDel, Key: req.Key}
			}
			f, err := c.Do(&req)
			if err != nil {
				t.Fatal(err)
			}
			futures = append(futures, f)
		}
	}
	for i, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, c := range clients {
		_ = c.Close()
	}
	for _, srv := range servers {
		srv.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		g, fd := runtime.NumGoroutine(), fds()
		if g <= baseG+2 && fd <= baseFD+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines (%d before boot), %d fds (%d before boot; -1: not Linux)", g, baseG, fd, baseFD)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
