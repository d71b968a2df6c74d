package server

import (
	"fmt"
	"testing"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// Nodes of the floor tests: writer A has a higher ID than B, which
// replicates none of the keys the tests write; C is a third node.
const (
	floorB node.ID = 2
	floorC node.ID = 3
	floorA node.ID = 4
)

// TestNonReplicaSeesNewerWrites is the regression test for a node that
// is not a replica of a key. (i) B reads the key over the fabric, which
// caches it; after A overwrites it and the rumor has had its rounds, B
// must read the new value, not its cached one. (ii) A writes a key B
// never stored, then B writes it: B's version must supersede A's, so a
// read at C returns B's value. Both hold only if B's sequencer learns
// the versions of rumors its sieve refuses. Outcomes are identical on
// one worker and four.
func TestNonReplicaSeesNewerWrites(t *testing.T) {
	want := runNonReplicaWrites(t, 1)
	if got := runNonReplicaWrites(t, 4); got != want {
		t.Fatalf("W=4 diverges from W=1:\n got: %s\nwant: %s", got, want)
	}
}

func runNonReplicaWrites(t *testing.T, workers int) string {
	t.Helper()
	c := newSimCluster(t, workers, 23, 5, 2)
	keys := c.keysNotKeptBy(floorB, 2)
	put := func(at node.ID, key, value string) {
		if sl := c.do(at, wire.OpPut, key, value); sl.status != wire.StatusOK {
			t.Fatalf("W=%d: put %s at %v: %v", workers, key, at, sl.status)
		}
		c.net.Run(10) // the rumor's rounds
	}
	get := func(at node.ID, key, want string) {
		if sl := c.do(at, wire.OpGet, key, ""); sl.status != wire.StatusValue || string(sl.payload) != want {
			t.Errorf("W=%d: get %s at %v = %v %q, want %q", workers, key, at, sl.status, sl.payload, want)
		}
	}

	// (i) A superseded value cached at B is not served once B has heard
	// of the newer version.
	put(floorA, keys[0], "a1")
	get(floorB, keys[0], "a1")
	put(floorA, keys[0], "a2")
	get(floorB, keys[0], "a2")

	// (ii) B's write supersedes A's although B never stored the key.
	put(floorA, keys[1], "from-a")
	if v := c.machines[floorB].en.St.Version(keys[1]); !v.IsZero() {
		t.Fatalf("W=%d: precondition: node %v stores %s at %v", workers, floorB, keys[1], v)
	}
	put(floorB, keys[1], "from-b")
	get(floorC, keys[1], "from-b")

	if v := c.machines[floorB].en.St.Version(keys[0]); !v.IsZero() {
		t.Fatalf("W=%d: node %v came to store %s at %v: it read a replica of its own", workers, floorB, keys[0], v)
	}
	return c.finalTrace()
}

// keysNotKeptBy returns n keys, in a fixed order, that id's sieve
// refuses: id is a replica of none of them.
func (c *simCluster) keysNotKeptBy(id node.ID, n int) []string {
	c.t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i == 1000 {
			c.t.Fatalf("node %v keeps every candidate key", id)
		}
		k := fmt.Sprintf("floor/%d", i)
		if !c.machines[id].en.Repair.Keep(&tuple.Tuple{Key: k}) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestEveryTupleMessageRaisesTheFloor hands B each message that carries
// tuples and checks that the tuple's version becomes the floor of its
// key — a rumor B's sieve refuses included, which leaves B's store
// without the key.
func TestEveryTupleMessageRaisesTheFloor(t *testing.T) {
	c := newSimCluster(t, 1, 29, 5, 2)
	b := c.machines[floorB]
	refused := c.keysNotKeptBy(floorB, 1)[0]
	kept := ""
	for i := 0; kept == ""; i++ {
		if k := fmt.Sprintf("kept/%d", i); b.en.Repair.Keep(&tuple.Tuple{Key: k}) {
			kept = k
		}
	}
	v := tuple.Version{Seq: 7, Writer: floorA}
	rumor := func(id uint64, key string) gossip.Rumor {
		tp := &tuple.Tuple{Key: key, Value: []byte("v"), Version: v}
		return gossip.Rumor{ID: id, Payload: epidemic.WritePayload{Tuple: tp, Origin: floorA, Entry: floorA}}
	}
	tuples := func(key string) []*tuple.Tuple {
		return []*tuple.Tuple{{Key: key, Value: []byte("v"), Version: v}}
	}
	for _, tc := range []struct {
		name, key string
		msg       any
	}{
		{"rumor kept", kept, gossip.RumorMsg{Rumor: rumor(1<<40+1, kept)}},
		{"rumor refused", refused, gossip.RumorMsg{Rumor: rumor(1<<40+2, refused)}},
		{"digest reply", "digest/k", gossip.DigestResp{Rumors: []gossip.Rumor{rumor(1<<40+3, "digest/k")}}},
		{"sync push", "push/k", repair.SyncPush{Tuples: tuples("push/k")}},
		{"adopt", "adopt/k", repair.AdoptReq{Arc: node.Arc{Width: 1}, Tuples: tuples("adopt/k")}},
		{"supersede newer", "newer/k", repair.SupersedeResp{Newer: tuples("newer/k")}},
	} {
		if _, known := b.soft.Seq.Latest(tc.key); known {
			t.Fatalf("%s: %s already has a floor", tc.name, tc.key)
		}
		b.Handle(c.net.Round(), floorA, tc.msg)
		if got, _ := b.soft.Seq.Latest(tc.key); got != v {
			t.Errorf("%s: floor of %s = %v, want %v", tc.name, tc.key, got, v)
		}
	}
	if got := b.en.St.Version(refused); !got.IsZero() {
		t.Fatalf("the refused rumor was stored at %v", got)
	}
}

// TestReceivedSeqAboveTheCeilingCannotWinTheKey: a rumor at the largest
// sequence a version can carry must not raise the floor of its key, or
// the node's next write would mint a wrapped 0@n that last-writer-wins
// discards. The Put that follows the rumor must read back. B, the node
// the rumor reaches, refuses it once and relays it to nobody.
func TestReceivedSeqAboveTheCeilingCannotWinTheKey(t *testing.T) {
	c := newSimCluster(t, 1, 31, 5, 2)
	const key = "k"
	huge := &tuple.Tuple{Key: key, Value: []byte("rumor"), Version: tuple.Version{Seq: 1<<64 - 1, Writer: floorA}}
	b := c.machines[floorB]
	b.Handle(c.net.Round(), floorA, gossip.RumorMsg{Rumor: gossip.Rumor{ID: 1 << 41,
		Payload: epidemic.WritePayload{Tuple: huge, Origin: floorA, Entry: floorA}}})
	c.net.Run(10) // the rumor's rounds
	if got, known := b.soft.Seq.Latest(key); known {
		t.Fatalf("the rumor raised the floor of %s to %v", key, got)
	}
	if sl := c.do(floorB, wire.OpPut, key, "put"); sl.status != wire.StatusOK {
		t.Fatalf("put %s at %v: %v %q", key, floorB, sl.status, sl.payload)
	}
	c.net.Run(10)
	for _, id := range c.ids {
		if sl := c.do(id, wire.OpGet, key, ""); sl.status != wire.StatusValue || string(sl.payload) != "put" {
			t.Errorf("get %s at %v = %v %q, want %q", key, id, sl.status, sl.payload, "put")
		}
	}
	for _, id := range c.ids {
		want := int64(0) // B refused the rumor, so nobody else saw it
		if id == floorB {
			want = 1
		}
		if got := c.machines[id].en.Rejected; got != want {
			t.Errorf("node %v rejected %d tuples, want %d", id, got, want)
		}
	}
}
