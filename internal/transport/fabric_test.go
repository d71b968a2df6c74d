package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// TestStalledPeerDoesNotBlockDriver is the tentpole's liveness proof:
// a peer that accepts connections but never reads fills its socket and
// queue, and the driver must keep dispatching ops at full speed while
// that peer's queue sheds load.
func TestStalledPeerDoesNotBlockDriver(t *testing.T) {
	// Peer 2 is a black hole: accepts, never reads.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	var stallConns []net.Conn
	var stallMu sync.Mutex
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			stallMu.Lock()
			stallConns = append(stallConns, c)
			stallMu.Unlock()
		}
	}()
	defer func() {
		stallMu.Lock()
		for _, c := range stallConns {
			_ = c.Close()
		}
		stallMu.Unlock()
	}()

	m := &pingMachine{}
	h := startHost(t, Config{
		Self:         1,
		Peers:        []Peer{{ID: 1}, {ID: 2, Addr: stall.Addr().String()}},
		TickInterval: 50 * time.Millisecond,
	}, m, func(h *Host) { h.queueDepth, h.writeDeadline = 64, time.Second })

	// Big payloads overwhelm the socket buffer quickly.
	big := repair.SyncPush{Tuples: []*tuple.Tuple{{Key: "k", Value: make([]byte, 64<<10), Version: tuple.Version{Seq: 1, Writer: 1}}}}
	var worst time.Duration
	for i := 0; i < 500; i++ {
		start := time.Now()
		err := h.Do(func(_ sim.Machine, _ sim.Round) []sim.Envelope {
			return []sim.Envelope{
				{To: 2, Msg: big},                   // into the stalled peer's queue
				{To: 1, Msg: "op-" + fmt.Sprint(i)}, // the "client op": self work
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Every op dispatched while ~32 MB piled up for the dead peer. The
	// driver never touches a socket, so even the worst Do must come in
	// far below the 1s write timeout the writer goroutine may be
	// sitting in.
	if worst > 500*time.Millisecond {
		t.Fatalf("worst Do latency %v with a stalled peer; driver is blocking on the network", worst)
	}
	if got := m.count(); got != 500 {
		t.Fatalf("self ops delivered = %d, want 500", got)
	}
	if h.Dropped.Value() == 0 {
		t.Fatal("stalled peer's queue never shed load; expected drops")
	}
}

// TestSelfSendNeverDropped is the regression test for the silent
// self-send drop: the old transport pushed self envelopes into the
// bounded mailbox and discarded them when it was full. Self delivery
// now bypasses the mailbox entirely, so a full mailbox must not cost a
// single self envelope.
func TestSelfSendNeverDropped(t *testing.T) {
	m := &pingMachine{}
	// This host never starts, so its address is never bound.
	h, err := NewHost(Config{Self: 1, Peers: []Peer{{ID: 1, Addr: "127.0.0.1:0"}}}, m)
	if err != nil {
		t.Fatal(err)
	}
	// White-box: act as the driver (it is not running) with the mailbox
	// wedged completely full — the exact state that used to drop.
	for i := 0; i < cap(h.mailbox); i++ {
		h.mailbox <- envelope{From: 2, Msg: "flood"}
	}
	const burst = 10_000
	envs := make([]sim.Envelope, burst)
	for i := range envs {
		envs[i] = sim.Envelope{To: 1, Msg: i}
	}
	h.send(envs)
	if len(h.selfQ) != burst {
		t.Fatalf("selfQ holds %d envelopes, want %d", len(h.selfQ), burst)
	}
	if h.Dropped.Value() != 0 {
		t.Fatalf("dropped %d self envelopes with a full mailbox", h.Dropped.Value())
	}
	h.deliverSelf()
	if got := m.count(); got != burst {
		t.Fatalf("delivered %d self envelopes, want %d", got, burst)
	}

	// Black-box: the same guarantee through a live host, with handlers
	// that fan out further self work mid-burst.
	m2 := &pingMachine{}
	h2 := startHost(t, Config{Self: 1, Peers: []Peer{{ID: 1}}}, m2, nil)
	if err := h2.Do(func(_ sim.Machine, _ sim.Round) []sim.Envelope {
		out := make([]sim.Envelope, burst)
		for i := range out {
			out[i] = sim.Envelope{To: 1, Msg: i}
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m2.count() < burst {
		if time.Now().After(deadline) {
			t.Fatalf("live host delivered %d/%d self envelopes", m2.count(), burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h2.Dropped.Value() != 0 {
		t.Fatalf("live host dropped %d envelopes", h2.Dropped.Value())
	}
}

// TestUnknownTagSkipsFrame proves the mixed-version rule end to end: a
// frame with an unassigned tag is skipped and the connection keeps
// delivering subsequent frames.
func TestUnknownTagSkipsFrame(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 1, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	h := hosts[0]
	c, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := bufio.NewWriter(c)
	if err := wire.WriteNodePreamble(bw, 2); err != nil {
		t.Fatal(err)
	}
	// Frame 1: a tag from the future with an arbitrary body.
	if err := wire.WriteNodeFrame(bw, []byte{200, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Frame 2: a valid message.
	valid, ok := appendMessage(nil, epidemic.ReadResp{ReqID: 1, Tuple: sampleTuple()})
	if !ok {
		t.Fatal("ReadResp has no DDN1 encoding")
	}
	if err := wire.WriteNodeFrame(bw, valid); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for machines[1].count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame after unknown tag was not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.UnknownTags.Value(); got != 1 {
		t.Fatalf("UnknownTags = %d, want 1", got)
	}
}

// TestPostAsync covers the asynchronous request path: Post returns
// before the closure runs, the closure still runs exactly once, and
// stranded closures execute during Stop.
func TestPostAsync(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 1, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	for i := 0; i < 100; i++ {
		if err := hosts[0].Post(func(_ sim.Machine, _ sim.Round) []sim.Envelope {
			return []sim.Envelope{{To: 1, Msg: "posted"}}
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for machines[1].count() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("posted ops delivered %d/100", machines[1].count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	hosts[0].Stop()
	if err := hosts[0].Post(func(_ sim.Machine, _ sim.Round) []sim.Envelope { return nil }); err == nil {
		t.Fatal("Post after Stop succeeded")
	}
}

// TestUnencodableMessageIsDroppedAndCounted: a message outside the
// protocol's set addressed to a remote peer is a programming error the
// peer writer drops and counts — it is not shipped by reflection, and
// it costs the connection nothing: the next real message arrives.
func TestUnencodableMessageIsDroppedAndCounted(t *testing.T) {
	if _, ok := appendMessage(nil, "plain string message"); ok {
		t.Fatal("string unexpectedly has a DDN1 encoding")
	}
	if _, ok := appendMessage(nil, gossip.RumorMsg{Rumor: gossip.Rumor{ID: 1, Payload: "exotic"}}); ok {
		t.Fatal("rumor with a string payload unexpectedly has a DDN1 encoding")
	}
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 2, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	if err := hosts[0].Do(func(sim.Machine, sim.Round) []sim.Envelope {
		return []sim.Envelope{
			{To: 2, Msg: "plain string message"},
			{To: 2, Msg: epidemic.StoreAck{Key: "real"}},
		}
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for machines[2].count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message after the unencodable one was not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	machines[2].mu.Lock()
	got := machines[2].received[0]
	machines[2].mu.Unlock()
	if got != "n0001:{real 0@n0000}" {
		t.Fatalf("received %q, want the StoreAck", got)
	}
	if d, s := hosts[0].Dropped.Value(), hosts[0].Sent.Value(); d != 1 || s != 1 {
		t.Fatalf("Dropped = %d, Sent = %d; want 1 and 1", d, s)
	}
}

// TestHostileCountDropsConnectionNotProcess is TestDecodeHostileCounts
// at the socket: any TCP peer can write the 11-byte VectorPush body
// claiming 2^61 floats. The connection is dropped, the process lives,
// and a well-behaved peer's next envelope is still delivered.
func TestHostileCountDropsConnectionNotProcess(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 2, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	c, err := net.Dial("tcp", hosts[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := bufio.NewWriter(c)
	if err := wire.WriteNodePreamble(bw, 9); err != nil {
		t.Fatal(err)
	}
	hostile := []byte{tagVectorPush, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if err := wire.WriteNodeFrame(bw, hostile); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the hostile frame: %v, want EOF (connection dropped)", err)
	}
	if err := hosts[0].Do(func(sim.Machine, sim.Round) []sim.Envelope {
		return []sim.Envelope{{To: 2, Msg: epidemic.StoreAck{Key: "still here"}}}
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for machines[2].count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("envelope from the well-behaved peer was not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := hosts[1].UnknownTags.Value(); got != 0 {
		t.Fatalf("UnknownTags = %d: a malformed body is not an unknown tag", got)
	}
}

// sizeMachine records the value length of every SyncPush tuple it is
// handed (pingMachine would format a 2 MiB value into its log).
type sizeMachine struct {
	mu   sync.Mutex
	lens []int
}

func (m *sizeMachine) Start(sim.Round) []sim.Envelope { return nil }
func (m *sizeMachine) Tick(sim.Round) []sim.Envelope  { return nil }
func (m *sizeMachine) Handle(_ sim.Round, _ node.ID, msg any) []sim.Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range msg.(repair.SyncPush).Tuples {
		m.lens = append(m.lens, len(t.Value))
	}
	return nil
}

// TestLargeFrameBufferNotKept: a frame above maxRecycledBuf crosses the
// fabric intact, between two small ones on the same connection, and the
// writer does not keep its buffer as the connection's encode scratch —
// a whole-cache DigestResp would otherwise pin tens of MiB per peer for
// the life of the connection.
func TestLargeFrameBufferNotKept(t *testing.T) {
	machines := map[node.ID]*sizeMachine{}
	hosts := startHosts(t, 2, func(id node.ID, _ []Peer) sim.Machine {
		machines[id] = &sizeMachine{}
		return machines[id]
	})
	want := []int{16, 2 * maxRecycledBuf, 16}
	for _, n := range want {
		push := repair.SyncPush{Tuples: []*tuple.Tuple{{Key: "k", Value: make([]byte, n), Version: tuple.Version{Seq: 1, Writer: 1}}}}
		if err := hosts[0].Do(func(sim.Machine, sim.Round) []sim.Envelope {
			return []sim.Envelope{{To: 2, Msg: push}}
		}); err != nil {
			t.Fatal(err)
		}
	}
	m := machines[2]
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		got := append([]int(nil), m.lens...)
		m.mu.Unlock()
		if len(got) == len(want) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("value lengths received = %v, want %v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames", len(got), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
	hosts[0].Stop() // the writer goroutine has exited: its scratch can be read
	if c := cap(hosts[0].senders[2].scratch); c == 0 || c > maxRecycledBuf {
		t.Fatalf("writer kept a %d-byte scratch; want one, of at most %d", c, maxRecycledBuf)
	}
}
