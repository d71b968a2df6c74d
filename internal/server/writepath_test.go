package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/sim"
)

// BenchmarkWritePath is one 1 KiB Put through the two-layer machine as
// Server.New wires it, without sockets: soft.Put sequences and caches
// it, the WriteCmd self-send reaches WriteFrom, the publisher's own
// delivery applies it to the store, and the resulting hint acknowledges
// the op. The value is handed over, as dispatch hands over its copy out
// of the codec buffer, so B/op is what the path itself allocates: about
// 1.1 KiB of bookkeeping and no copy of the value, which the soft
// cache, the rumor in the gossip payload cache and the store all share.
// CI gates on it at 2 KiB: one defensive clone put back on a hand-off
// adds 1.1 KiB and fails the job (there were four, for 5.2 KiB/op).
func BenchmarkWritePath(b *testing.B) {
	soft, en, m := oneNodeMachine()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/key%04d", i)
	}
	value := make([]byte, 1024)
	var queue []sim.Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, envs := soft.Put(1, keys[i%len(keys)], value, nil, nil, false)
		// Self-delivery until quiescent, as transport.Host.deliverSelf does.
		queue = append(queue[:0], envs...)
		for j := 0; j < len(queue); j++ {
			if queue[j].To != soft.Self {
				b.Fatalf("envelope to %v on a one-node cluster", queue[j].To)
			}
			queue = append(queue, m.Handle(1, soft.Self, queue[j].Msg)...)
		}
		if op, ok := soft.Op(id); !ok || !op.Done || op.Err != "" {
			b.Fatalf("put %d did not complete: %+v", i, op)
		}
		soft.ForgetOp(id)
	}
	b.StopTimer()
	if got := en.St.Len(); got != min(b.N, len(keys)) {
		b.Fatalf("store holds %d keys, want %d", got, min(b.N, len(keys)))
	}
}

// oneNodeMachine is the two-layer machine as Server.New wires it, LocalRead
// included, on a one-node cluster and without sockets.
func oneNodeMachine() (*core.SoftNode, *epidemic.Node, *machine) {
	const self = node.ID(1)
	cfg := Config{Self: self, Seed: 1}.normalized()
	m := newMachine(cfg, rand.New(rand.NewSource(cfg.Seed)), []node.ID{self}, func(*slot, *core.Op) {})
	m.Start(0)
	return m.soft, m.en, m
}

// TestLocalGetCopiesNothing: a Get answered by the collocated replica
// completes with the very tuple the store holds and copies no value —
// neither for the op nor to refill the soft cache. The value is copied
// once, later, into the DDB1 response frame.
func TestLocalGetCopiesNothing(t *testing.T) {
	soft, en, m := oneNodeMachine()
	const key, size = "local/key", 1024
	_, envs := soft.Put(1, key, make([]byte, size), nil, nil, false)
	for len(envs) > 0 {
		envs = append(envs[1:], m.Handle(1, soft.Self, envs[0].Msg)...)
	}
	stored, ok := en.St.Peek(key)
	if !ok {
		t.Fatal("put did not reach the store")
	}
	const gets = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		soft.Cache.Invalidate(key) // force the LocalRead path
		id, envs := soft.Get(1, key)
		op, ok := soft.Op(id)
		if len(envs) != 0 || !ok || !op.Done || op.Tuple != stored {
			t.Fatalf("get %d not served locally with the stored tuple: envs %d, op %+v", i, len(envs), op)
		}
		soft.ForgetOp(id)
	}
	runtime.ReadMemStats(&after)
	if soft.LocalReads != gets {
		t.Fatalf("LocalReads = %d, want %d", soft.LocalReads, gets)
	}
	if perGet := (after.TotalAlloc - before.TotalAlloc) / gets; perGet >= size {
		t.Fatalf("a local Get of a %d B value allocates %d B, want no copy of the value", size, perGet)
	}
	if now, _ := en.St.Peek(key); now != stored {
		t.Fatal("the store's tuple was replaced by a read")
	}
}
