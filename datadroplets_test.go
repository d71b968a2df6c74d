package datadroplets

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"datadroplets/internal/workload"
)

func TestFacadeQuickstart(t *testing.T) {
	c := New(WithNodes(24), WithSoftNodes(2), WithReplication(3), WithSeed(1),
		WithFanoutC(3), WithAntiEntropy(5))
	defer c.Close()
	c.Advance(15)
	if err := c.Put("user:1", []byte("alice"), nil, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("user:1")
	if err != nil || string(got.Value) != "alice" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if err := c.Delete("user:1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("user:1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-delete err = %v", err)
	}
}

func TestFacadeFailureInjection(t *testing.T) {
	c := New(WithNodes(30), WithReplication(4), WithSeed(2), WithFanoutC(3))
	defer c.Close()
	c.Advance(15)
	if err := c.Put("k", []byte("v"), nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Advance(10)
	if c.Holders("k") == 0 {
		t.Fatal("no holders")
	}
	before := c.Nodes()
	c.KillNode(0, false)
	if c.Nodes() != before-1 {
		t.Fatal("kill had no effect")
	}
	c.ReviveNode(0)
	if c.Nodes() != before {
		t.Fatal("revive had no effect")
	}
}

func TestFacadeAggregates(t *testing.T) {
	c := New(WithNodes(30), WithReplication(3), WithSeed(3), WithFanoutC(3),
		WithAggregates("count"))
	defer c.Close()
	c.Advance(15)
	for i := 0; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("k-%d", i), []byte("v"), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(40)
	agg, err := c.Aggregate("count")
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if agg.Sum < 10 || agg.Sum > 40 {
		t.Fatalf("count = %v, want ≈20", agg.Sum)
	}
	if agg.NEstimate < 15 || agg.NEstimate > 60 {
		t.Fatalf("NEstimate = %v, want ≈30", agg.NEstimate)
	}
}

func TestFacadeAsyncBatch(t *testing.T) {
	c := New(WithNodes(24), WithSoftNodes(2), WithReplication(3), WithSeed(5), WithFanoutC(3))
	defer c.Close()
	c.Advance(15)
	puts := make([]PutOp, 16)
	for i := range puts {
		puts[i] = PutOp{Key: fmt.Sprintf("b-%d", i), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	for i, err := range c.BatchPut(puts) {
		if err != nil {
			t.Fatalf("batch put %d: %v", i, err)
		}
	}
	gets := make([]BatchOp, 16)
	for i := range gets {
		gets[i] = BatchOp{Kind: OpGet, Key: fmt.Sprintf("b-%d", i)}
	}
	for i, r := range c.Batch(gets) {
		if r.Err != nil || string(r.Tuple.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("batch get %d = %v, %v", i, r.Tuple, r.Err)
		}
	}
	// Raw handle flow: submit, wait, inspect.
	h := c.GetAsync("b-3")
	c.Wait()
	if !h.Done() || h.Err() != nil || string(h.Tuple().Value) != "v3" {
		t.Fatalf("async get = %v, %v", h.Tuple(), h.Err())
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight = %d after Wait", c.InFlight())
	}
}

// asyncClient adapts the public facade to workload.AsyncClient without
// leaking the internal interface into the exported API.
type asyncClient struct{ c *Cluster }

func (a asyncClient) SubmitPut(key string, value []byte) workload.Waiter {
	return a.c.PutAsync(key, value, nil, nil)
}
func (a asyncClient) SubmitGet(key string) workload.Waiter { return a.c.GetAsync(key) }
func (a asyncClient) Step()                                { a.c.Step() }

// throughputCluster is the default 32-node deployment the throughput
// acceptance criterion is stated against.
func throughputCluster(seed int64) *Cluster {
	c := New(WithNodes(32), WithSoftNodes(4), WithReplication(3), WithFanoutC(3), WithSeed(seed))
	c.Advance(20)
	return c
}

// mixedLoop runs the canonical 512-op mixed workload at the given
// window and returns the loop stats.
func mixedLoop(c *Cluster, window int, rngSeed int64) workload.ClosedLoopResult {
	rng := rand.New(rand.NewSource(rngSeed))
	cl := workload.ClosedLoop{
		Window: window,
		Total:  512,
		Mix:    workload.Mix{ReadFraction: 0.5, Keys: workload.UniformKeys(256, rng)},
	}
	return cl.Run(asyncClient{c}, rng)
}

// TestThroughputPipelinedVsSerial enforces the PR's acceptance bar: a
// 512-op mixed workload at window=64 on the default 32-node cluster
// must finish in at most 1/5 the simulated rounds of the serial path,
// with byte-identical results for equal seeds.
func TestThroughputPipelinedVsSerial(t *testing.T) {
	serial := mixedLoop(throughputCluster(7), 1, 70)
	pipe := mixedLoop(throughputCluster(7), 64, 70)
	if serial.Ops != 512 || pipe.Ops != 512 {
		t.Fatalf("ops: serial %d, pipelined %d, want 512", serial.Ops, pipe.Ops)
	}
	if pipe.Rounds*5 > serial.Rounds {
		t.Fatalf("pipelined rounds = %d, serial = %d — want ≥5× fewer", pipe.Rounds, serial.Rounds)
	}

	// Byte-identical determinism: rerun the pipelined workload with the
	// same seeds and compare loop stats and every surviving value.
	readBack := func(c *Cluster) [][]byte {
		ops := make([]BatchOp, 256)
		for i := range ops {
			ops[i] = BatchOp{Kind: OpGet, Key: workload.Key(i)}
		}
		out := make([][]byte, len(ops))
		for i, r := range c.Batch(ops) {
			if r.Tuple != nil {
				out[i] = r.Tuple.Value
			}
		}
		return out
	}
	c1, c2 := throughputCluster(7), throughputCluster(7)
	r1, r2 := mixedLoop(c1, 64, 70), mixedLoop(c2, 64, 70)
	if r1 != r2 {
		t.Fatalf("same seed, different loop stats: %+v vs %+v", r1, r2)
	}
	v1, v2 := readBack(c1), readBack(c2)
	for i := range v1 {
		if !bytes.Equal(v1[i], v2[i]) {
			t.Fatalf("same seed, different value for key %d", i)
		}
	}
}

func TestFacadeRecovery(t *testing.T) {
	c := New(WithNodes(24), WithReplication(3), WithSeed(4), WithFanoutC(3))
	defer c.Close()
	c.Advance(15)
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k-%d", i), []byte("v"), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10)
	c.WipeSoftLayer()
	n, err := c.RecoverSoftLayer()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n == 0 {
		t.Fatal("nothing recovered")
	}
	if _, err := c.Get("k-5"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
}

func TestFacadeSameSeedDeterministic(t *testing.T) {
	c := New(WithNodes(24), WithSeed(11), WithReplication(3))
	defer c.Close()
	c.Advance(20)
	if err := c.Put("rr:a", []byte("v"), nil, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("rr:a")
	if err != nil || string(got.Value) != "v" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Same options, same seed: the deployment is deterministic, read-
	// repair traffic included.
	d := New(WithNodes(24), WithSeed(11), WithReplication(3))
	defer d.Close()
	d.Advance(20)
	if err := d.Put("rr:a", []byte("v"), nil, nil); err != nil {
		t.Fatalf("second cluster Put: %v", err)
	}
	if c.Round() != d.Round() {
		t.Fatalf("same-seed runs diverged: rounds %d vs %d", c.Round(), d.Round())
	}
}

// TestPutDoesNotAliasCallerValue: inside the cluster a written tuple is
// shared, never copied — soft cache, rumor and every replica's store
// hold the same one — so the facade is where caller-owned memory is
// copied in, and where results are copied out. Whatever the caller does
// to its buffers after Put, or to a tuple Get returned, later reads see
// what was written, whether the soft cache or the persistent layer
// serves them.
func TestPutDoesNotAliasCallerValue(t *testing.T) {
	c := New(WithNodes(24), WithSoftNodes(2), WithReplication(3), WithSeed(7), WithFanoutC(3))
	defer c.Close()
	c.Advance(15)
	value := []byte("original")
	attrs := map[string]float64{"price": 1}
	tags := []string{"eu"}
	if err := c.Put("direct", value, attrs, tags); err != nil {
		t.Fatal(err)
	}
	if errs := c.BatchPut([]PutOp{{Key: "batched", Value: value, Attrs: attrs, Tags: tags}}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	value[0], attrs["price"], attrs["added"], tags[0] = 'X', 2, 1, "us"

	check := func(servedBy string) {
		t.Helper()
		for _, key := range []string{"direct", "batched"} {
			got, err := c.Get(key)
			if err != nil {
				t.Fatalf("%s, %s: %v", servedBy, key, err)
			}
			if string(got.Value) != "original" || len(got.Attrs) != 1 || got.Attrs["price"] != 1 ||
				len(got.Tags) != 1 || got.Tags[0] != "eu" {
				t.Fatalf("%s, %s: Get = %q %v %v, want what was written", servedBy, key, got.Value, got.Attrs, got.Tags)
			}
			got.Value[0], got.Attrs["price"], got.Tags[0] = 'Y', 3, "zz"
		}
	}
	check("soft cache")
	c.WipeSoftLayer()
	if _, err := c.RecoverSoftLayer(); err != nil {
		t.Fatal(err)
	}
	check("persistent layer")
	check("soft cache refilled by that read")
}
