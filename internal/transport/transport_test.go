package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// pingMachine counts receipts and can originate pings.
type pingMachine struct {
	mu       sync.Mutex
	received []string
}

func (m *pingMachine) Start(now sim.Round) []sim.Envelope { return nil }
func (m *pingMachine) Tick(now sim.Round) []sim.Envelope  { return nil }
func (m *pingMachine) Handle(now sim.Round, from node.ID, msg any) []sim.Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.received = append(m.received, fmt.Sprintf("%s:%v", from, msg))
	return nil
}

func (m *pingMachine) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.received)
}

// startHosts boots n hosts on loopback with auto-assigned ports.
func startHosts(t *testing.T, n int, build func(id node.ID, peers []Peer) sim.Machine) []*Host {
	t.Helper()
	// A port picked by listening and closing can be taken by another
	// process before Start binds it: a boot that fails stops every host
	// it started and retries on fresh addresses, up to 5 times.
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var hosts []*Host
		if hosts, err = bootHosts(t, n, build); err == nil {
			for _, h := range hosts {
				t.Cleanup(h.Stop)
			}
			return hosts
		}
	}
	t.Fatal(err)
	return nil
}

// startHost starts one host for m, binding cfg.Self's entry of
// cfg.Peers to a fresh loopback address on each try. As in startHosts, a
// picked port can be taken before Start binds it, so a failed Start
// retries on a fresh address, up to 5 times. prepare, when set, adjusts
// each new host before it starts.
func startHost(t *testing.T, cfg Config, m sim.Machine, prepare func(*Host)) *Host {
	t.Helper()
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		ln, lerr := nettestListen(t)
		if lerr != nil {
			t.Fatal(lerr)
		}
		c := cfg
		c.Peers = append([]Peer(nil), cfg.Peers...)
		for i := range c.Peers {
			if c.Peers[i].ID == c.Self {
				c.Peers[i].Addr = ln.Addr().String()
			}
		}
		_ = ln.Close()
		h, herr := NewHost(c, m)
		if herr != nil {
			t.Fatal(herr)
		}
		if prepare != nil {
			prepare(h)
		}
		if err = h.Start(); err == nil {
			t.Cleanup(h.Stop)
			return h
		}
	}
	t.Fatal(err)
	return nil
}

// bootHosts is one attempt of startHosts: pick free ports, build the
// address book, then start every host. On an error, no host it started
// is left running.
func bootHosts(t *testing.T, n int, build func(id node.ID, peers []Peer) sim.Machine) ([]*Host, error) {
	peers := make([]Peer, n)
	for i := range peers {
		ln, err := nettestListen(t)
		if err != nil {
			return nil, err
		}
		peers[i] = Peer{ID: node.ID(i + 1), Addr: ln.Addr().String()}
		_ = ln.Close()
	}
	hosts := make([]*Host, 0, n)
	for i := range peers {
		h, err := NewHost(Config{
			Self:         peers[i].ID,
			Peers:        peers,
			TickInterval: 20 * time.Millisecond,
		}, build(peers[i].ID, peers))
		if err == nil {
			err = h.Start()
		}
		if err != nil {
			for _, started := range hosts {
				started.Stop()
			}
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

func TestPointToPointDelivery(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 2, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	err := hosts[0].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
		return []sim.Envelope{{To: 2, Msg: epidemic.AggReq{Attr: "hello"}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for machines[2].count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message not delivered over TCP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	machines[2].mu.Lock()
	got := machines[2].received[0]
	machines[2].mu.Unlock()
	if got != "n0001:{hello 0}" {
		t.Fatalf("received %q", got)
	}
}

func TestSelfDelivery(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 1, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	_ = hosts[0].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
		return []sim.Envelope{{To: 1, Msg: "loop"}}
	})
	deadline := time.Now().Add(2 * time.Second)
	for machines[1].count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("self message not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSendToDeadPeerDropsNotBlocks(t *testing.T) {
	machines := map[node.ID]*pingMachine{}
	hosts := startHosts(t, 2, func(id node.ID, peers []Peer) sim.Machine {
		m := &pingMachine{}
		machines[id] = m
		return m
	})
	hosts[1].Stop()
	done := make(chan struct{})
	go func() {
		_ = hosts[0].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
			return []sim.Envelope{{To: 2, Msg: epidemic.AggReq{Attr: "into the void"}}}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("send to dead peer blocked")
	}
}

// TestEpidemicOverTCP runs a real 5-node epidemic cluster over loopback
// TCP: a write disseminates, a remote read finds it.
func TestEpidemicOverTCP(t *testing.T) {
	const n = 5
	nodes := map[node.ID]*epidemic.Node{}
	var ids []node.ID
	for i := 1; i <= n; i++ {
		ids = append(ids, node.ID(i))
	}
	hosts := startHosts(t, n, func(id node.ID, peers []Peer) sim.Machine {
		rng := rand.New(rand.NewSource(int64(id)))
		en := epidemic.New(id, rng, membership.NewUniformView(id, rng, func() []node.ID { return ids }),
			epidemic.Config{Replication: n, FanoutC: 4, AntiEntropyEvery: 3, DisableRepair: true})
		nodes[id] = en
		return en
	})
	// Write through host 1.
	err := hosts[0].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
		return nodes[1].Write(now, &tuple.Tuple{
			Key: "tcp-key", Value: []byte("over-the-wire"),
			Version: tuple.Version{Seq: 1, Writer: 1},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the write to reach node 5's store (replication factor n
	// makes every node a keeper).
	deadline := time.Now().Add(8 * time.Second)
	for {
		var found bool
		_ = hosts[4].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
			_, found = nodes[5].St.Get("tcp-key")
			return nil
		})
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write did not disseminate over TCP")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Remote read via the probe protocol from node 3.
	var reqID uint64
	_ = hosts[2].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
		var envs []sim.Envelope
		reqID, envs = nodes[3].Lookup("tcp-key", nil, 3, 2)
		return envs
	})
	deadline = time.Now().Add(8 * time.Second)
	for {
		var hit bool
		var val string
		_ = hosts[2].Do(func(m sim.Machine, now sim.Round) []sim.Envelope {
			if st, ok := nodes[3].Read(reqID); ok && st.Hit {
				hit = true
				val = string(st.Tuple.Value)
			}
			return nil
		})
		if hit {
			if val != "over-the-wire" {
				t.Fatalf("read value %q", val)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("remote read did not resolve over TCP")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// nettestListen binds an ephemeral loopback port.
func nettestListen(t *testing.T) (interface {
	Addr() net.Addr
	Close() error
}, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}
