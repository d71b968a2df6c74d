package core

import (
	"math/rand"
	"testing"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/repair"
	"datadroplets/internal/tuple"
)

// readRepairCluster mutes the background range checks so the Get-path
// read-repair under test is what moves the counter (the repair manager
// stays wired: it handles the SyncPush the soft node sends).
func readRepairCluster(seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		SoftNodes:       3,
		PersistentNodes: 24,
		Seed:            seed,
		Persist: epidemic.Config{
			Replication: 3, FanoutC: 3,
			Repair: repair.Config{CheckEvery: 1 << 20},
		},
	})
}

// plantDivergence stores divergent versions of key directly on two
// persistent nodes and registers matching directory hints plus the
// latest version at the responsible soft node, so the next Get probes
// exactly these two replicas.
func plantDivergence(c *Cluster, key string) (fresh, stale node.ID) {
	fresh, stale = c.persIDs[0], c.persIDs[1]
	newT := &tuple.Tuple{Key: key, Value: []byte("new"), Version: tuple.Version{Seq: 5, Writer: 9}}
	oldT := &tuple.Tuple{Key: key, Value: []byte("old"), Version: tuple.Version{Seq: 2, Writer: 9}}
	c.Pers[fresh].St.Apply(newT)
	c.Pers[stale].St.Apply(oldT)
	s := c.Route(key)
	s.Seq.Observe(key, newT.Version)
	s.Dir.AddHint(key, fresh)
	s.Dir.AddHint(key, stale)
	return fresh, stale
}

func TestGetReadRepairsStaleReplica(t *testing.T) {
	c := readRepairCluster(61)
	defer c.Close()
	c.Run(10)
	key := "rr:key"
	fresh, stale := plantDivergence(c, key)

	got, err := c.Get(key)
	if err != nil || got.Version.Seq != 5 {
		t.Fatalf("Get = %v, %v; want v5", got, err)
	}
	c.Run(6) // let the asynchronous repair push land
	repaired, ok := c.Pers[stale].St.Get(key)
	if !ok || repaired.Version.Seq != 5 {
		t.Fatalf("stale replica has %v, want read-repaired to v5", repaired)
	}
	if fr, _ := c.Pers[fresh].St.Get(key); fr.Version.Seq != 5 {
		t.Fatalf("fresh replica has %v, want untouched v5", fr)
	}
	total := int64(0)
	for _, s := range c.Softs {
		total += s.ReadRepairs
	}
	if total == 0 {
		t.Fatal("no soft node counted a read-repair")
	}
}

// peerSampler answers every draw with the same fixed peers.
type peerSampler []node.ID

func (p peerSampler) One() node.ID         { return p[0] }
func (p peerSampler) Sample(int) []node.ID { return p }

// TestReadReplyAboveTheCeilingIsAMiss: a read reply whose tuple fails
// tuple.Validate — here a sequence above the ceiling — neither raises
// the version floor nor answers the Get; it counts as a miss.
func TestReadReplyAboveTheCeilingIsAMiss(t *testing.T) {
	s := NewSoftNode(1, rand.New(rand.NewSource(1)), peerSampler{2}, SoftConfig{})
	id, envs := s.Get(0, "k")
	if len(envs) != 1 {
		t.Fatalf("Get sent %d probes, want 1", len(envs))
	}
	huge := &tuple.Tuple{Key: "k", Value: []byte("v"), Version: tuple.Version{Seq: 1<<64 - 1, Writer: 2}}
	s.Handle(1, 2, epidemic.ReadResp{ReqID: id, Tuple: huge})
	if v, known := s.Seq.Latest("k"); known {
		t.Fatalf("the reply raised the floor of k to %v", v)
	}
	if op, _ := s.Op(id); !op.Done || op.Tuple != nil {
		t.Fatalf("Get done=%v tuple=%v, want a completed miss", op.Done, op.Tuple)
	}
	if s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
}
