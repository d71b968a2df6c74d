package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/membership"
	"datadroplets/internal/node"
	"datadroplets/internal/workload"
)

// mixedBatch builds a write-then-read workload over n keys.
func mixedBatch(n int) []BatchOp {
	ops := make([]BatchOp, 0, 2*n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Kind: OpPut, Key: workload.Key(i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Kind: OpGet, Key: workload.Key(i)})
	}
	return ops
}

func TestBatchMixedOps(t *testing.T) {
	c := smallCluster(41)
	c.Run(10)
	const n = 40
	res := c.Batch(mixedBatch(n))
	if len(res) != 2*n {
		t.Fatalf("results = %d, want %d", len(res), 2*n)
	}
	for i := 0; i < n; i++ {
		if res[i].Err != nil {
			t.Fatalf("put %d: %v", i, res[i].Err)
		}
	}
	for i := 0; i < n; i++ {
		r := res[n+i]
		if r.Err != nil {
			t.Fatalf("get %d: %v", i, r.Err)
		}
		if string(r.Tuple.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = %q", i, r.Tuple.Value)
		}
	}
	if got := c.InFlightOps(); got != 0 {
		t.Fatalf("in-flight after batch = %d", got)
	}
}

// TestPipelinedSharesRounds is the engine's reason to exist: a batch of
// ops must finish in far fewer simulated rounds than the serial path.
func TestPipelinedSharesRounds(t *testing.T) {
	const n = 64

	serial := smallCluster(42)
	serial.Run(10)
	start := serial.Net.Round()
	for i := 0; i < n; i++ {
		if err := serial.Put(workload.Key(i), []byte("v"), nil, nil); err != nil {
			t.Fatalf("serial put %d: %v", i, err)
		}
	}
	serialRounds := int(serial.Net.Round() - start)

	batched := smallCluster(42)
	batched.Run(10)
	start = batched.Net.Round()
	for i := 0; i < n; i++ {
		batched.PutAsync(workload.Key(i), []byte("v"), nil, nil)
	}
	batched.WaitAll()
	batchRounds := int(batched.Net.Round() - start)

	if batchRounds*5 > serialRounds {
		t.Fatalf("batched %d puts took %d rounds, serial took %d — want ≥5× sharing", n, batchRounds, serialRounds)
	}
}

// TestPipelinedUnderLoss pushes a pipelined batch through a lossy
// fabric: the overwhelming majority of ops must still complete.
func TestPipelinedUnderLoss(t *testing.T) {
	c := NewCluster(ClusterConfig{
		SoftNodes:       3,
		PersistentNodes: 30,
		Seed:            43,
		Loss:            0.10,
		Persist: epidemic.Config{
			Replication: 4, FanoutC: 3, AntiEntropyEvery: 5, DisableRepair: true,
		},
	})
	c.Run(15)
	const n = 40
	puts := make([]*Pending, 0, n)
	for i := 0; i < n; i++ {
		puts = append(puts, c.PutAsync(workload.Key(i), []byte("v"), nil, nil))
	}
	c.WaitAll()
	okW := 0
	for _, p := range puts {
		if p.Err() == nil {
			okW++
		}
	}
	if okW < n*8/10 {
		t.Fatalf("pipelined writes ok %d/%d under 10%% loss", okW, n)
	}
	c.Run(20)
	gets := make([]*Pending, 0, n)
	for i := 0; i < n; i++ {
		gets = append(gets, c.GetAsync(workload.Key(i)))
	}
	c.WaitAll()
	okR := 0
	for _, p := range gets {
		if p.Err() == nil {
			okR++
		}
	}
	if okR < okW*9/10 {
		t.Fatalf("pipelined reads ok %d of %d written under 10%% loss", okR, okW)
	}
}

// TestSoftNodeKillMidBatch kills one soft node while its ops are in
// flight: WaitAll must still terminate, the dead node's ops must resolve
// as timeouts, and ops on surviving nodes must succeed.
func TestSoftNodeKillMidBatch(t *testing.T) {
	c := smallCluster(44)
	c.Run(10)
	const n = 48
	puts := make([]*Pending, 0, n)
	for i := 0; i < n; i++ {
		puts = append(puts, c.PutAsync(workload.Key(i), []byte("v"), nil, nil))
	}
	victim := puts[0].s
	c.Net.Kill(victim.Self, false)
	c.WaitAll()
	if got := c.InFlightOps(); got != 0 {
		t.Fatalf("in-flight after WaitAll = %d", got)
	}
	timedOut, okOther := 0, 0
	for _, p := range puts {
		if !p.Done() {
			t.Fatal("unresolved handle after WaitAll")
		}
		if p.s == victim {
			if !errors.Is(p.Err(), ErrTimeout) {
				t.Fatalf("op on killed soft node: err = %v, want ErrTimeout", p.Err())
			}
			timedOut++
		} else if p.Err() == nil {
			okOther++
		}
	}
	if timedOut == 0 {
		t.Fatal("no ops were routed to the killed soft node")
	}
	if okOther == 0 {
		t.Fatal("no ops succeeded on surviving soft nodes")
	}
}

// TestPipelinedSameKeyWrites: several writes to one key in flight at
// once must all complete (version-aware acks), and the key must read
// back at the newest version.
func TestPipelinedSameKeyWrites(t *testing.T) {
	c := smallCluster(48)
	c.Run(10)
	const n = 8
	puts := make([]*Pending, 0, n)
	for i := 0; i < n; i++ {
		puts = append(puts, c.PutAsync("hot", []byte(fmt.Sprintf("v%d", i)), nil, nil))
	}
	c.WaitAll()
	for i, p := range puts {
		if p.Err() != nil {
			t.Fatalf("pipelined put %d to same key: %v", i, p.Err())
		}
	}
	got, err := c.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != fmt.Sprintf("v%d", n-1) {
		t.Fatalf("value = %q, want v%d", got.Value, n-1)
	}
}

// TestWriteAcksCountDistinctReplicas: with pipelined writes to one key,
// a single replica acking successive versions must not satisfy a
// WriteAcks=2 durability requirement by itself.
func TestWriteAcksCountDistinctReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := []node.ID{1, 2, 3}
	s := NewSoftNode(100, rng,
		membership.NewUniformView(100, rng, func() []node.ID { return pop }),
		SoftConfig{WriteAcks: 2})
	id1, _ := s.Put(0, "k", []byte("v1"), nil, nil, false)
	id2, _ := s.Put(0, "k", []byte("v2"), nil, nil, false)
	op1, _ := s.Op(id1)
	op2, _ := s.Op(id2)
	// Replica 1 stores both versions: that is still one replica.
	s.Handle(1, 1, epidemic.StoreAck{Key: "k", Version: op1.Version})
	s.Handle(1, 1, epidemic.StoreAck{Key: "k", Version: op2.Version})
	if op1.Done || op2.Done {
		t.Fatalf("one replica satisfied WriteAcks=2: op1=%v op2=%v", op1.Done, op2.Done)
	}
	// A second, distinct replica acking the newest version completes
	// both writes (the newer version supersedes the older).
	s.Handle(2, 2, epidemic.StoreAck{Key: "k", Version: op2.Version})
	if !op1.Done || !op2.Done {
		t.Fatalf("two distinct replicas did not complete: op1=%v op2=%v", op1.Done, op2.Done)
	}
}

// TestWaitAllBoundResets: a long-budget op that resolved long ago must
// not stretch WaitAll's wait for a later stranded op.
func TestWaitAllBoundResets(t *testing.T) {
	c := smallCluster(49)
	c.Run(10)
	s := c.AnySoft()
	// A 500-round-budget op that resolves almost immediately.
	opID, envs := s.Get(c.Net.Round(), "warm")
	p1 := c.track(s, OpGet, "warm", opID, envs, 500)
	c.wait(p1)
	if !p1.Done() {
		t.Fatal("warm-up get did not resolve")
	}
	// A short-budget op stranded on a killed soft node.
	opID2, envs2 := s.Get(c.Net.Round(), "k2")
	p2 := c.track(s, OpGet, "k2", opID2, envs2, 50)
	c.Net.Kill(s.Self, false)
	start := c.Net.Round()
	c.WaitAll()
	stepped := int(c.Net.Round() - start)
	if stepped > 60 {
		t.Fatalf("WaitAll stepped %d rounds; stale 500-round bound not reset", stepped)
	}
	if !errors.Is(p2.Err(), ErrTimeout) {
		t.Fatalf("stranded op err = %v, want ErrTimeout", p2.Err())
	}
}

// TestBatchDeterminism: same seed + same batch ⇒ byte-identical results
// and fabric stats.
func TestBatchDeterminism(t *testing.T) {
	run := func() string {
		c := smallCluster(45)
		c.Run(10)
		res := c.Batch(mixedBatch(48))
		sig := ""
		for _, r := range res {
			switch {
			case r.Err != nil:
				sig += "err:" + r.Err.Error() + ";"
			case r.Tuple != nil:
				sig += fmt.Sprintf("%s@%s;", r.Tuple.Value, r.Tuple.Version)
			default:
				sig += "ok;"
			}
		}
		return sig + fmt.Sprintf("round=%d sent=%d", c.Net.Round(), c.Net.Stats.Sent.Value())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different batch transcripts:\n%s\nvs\n%s", a, b)
	}
}

// TestUnknownOpResolvesWithError is the regression test for the Scan
// nil-op dereference: resolving an op the soft node never registered (or
// already forgot) must yield an error, not a panic.
func TestUnknownOpResolvesWithError(t *testing.T) {
	c := smallCluster(46)
	c.Run(5)
	s := c.AnySoft()
	p := c.track(s, OpScan, "", 1<<40, nil, 5)
	if p.Err() == nil {
		t.Fatal("tracking an unknown op must error")
	}
	// And an op that vanishes mid-flight times out instead of panicking.
	p2 := c.ScanAsync("attr", 0, 1, 10)
	s2 := p2.s
	s2.ForgetOp(p2.id)
	c.wait(p2)
	if !errors.Is(p2.Err(), ErrTimeout) {
		t.Fatalf("vanished op err = %v, want ErrTimeout", p2.Err())
	}
}

// TestSyncSemanticsUnchanged spot-checks that the synchronous wrappers
// behave exactly like the old one-op loop for the edge cases.
func TestSyncSemanticsUnchanged(t *testing.T) {
	c := smallCluster(47)
	c.Run(10)
	// Unknown aggregate attribute errors cleanly.
	if _, err := c.Aggregate("nope"); err == nil {
		t.Fatal("unknown aggregate should error")
	}
	// Sync ops leave no tracked state behind.
	if err := c.Put("k", []byte("v"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.InFlightOps(); got != 0 {
		t.Fatalf("in-flight after sync put = %d", got)
	}
	if got := len(c.Route("k").ops); got != 0 {
		t.Fatalf("ops tracked on soft node after sync put = %d", got)
	}
}
