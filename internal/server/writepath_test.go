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
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
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
// and the server's finish callback included, on a one-node cluster and
// without sockets or host.
func oneNodeMachine() (*core.SoftNode, *epidemic.Node, *machine) {
	const self = node.ID(1)
	cfg := Config{Self: self, Seed: 1}.normalized()
	m := newMachine(cfg, rand.New(rand.NewSource(cfg.Seed)), []node.ID{self}, new(Server).opDone)
	m.Start(0)
	return m.soft, m.en, m
}

// localReplica seeds the one-node machine as a replica that has heard
// of key's version but never cached it, so a Get of key is answered by
// the collocated replica; it returns the stored tuple.
func localReplica(soft *core.SoftNode, en *epidemic.Node, key string, size int) *tuple.Tuple {
	en.St.Apply(&tuple.Tuple{Key: key, Value: make([]byte, size), Version: tuple.Version{Seq: 1, Writer: 2}})
	soft.Seq.Observe(key, en.St.Version(key))
	stored, _ := en.St.Peek(key)
	return stored
}

// BenchmarkLocalGet is one version-exact Get through machine.submit, as
// a connection's drain submits it, with a preallocated slot: the soft
// layer answers from the collocated replica and the slot settles
// straight from the tuple, with no op, no channel and no copy of the
// value. CI fails the job above 0 allocs/op.
func BenchmarkLocalGet(b *testing.B) {
	soft, en, m := oneNodeMachine()
	const key = "local/key"
	stored := localReplica(soft, en, key, 1024)
	sl := &slot{kind: wire.OpGet, key: key, wake: make(chan struct{}, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl.ready.Store(false)
		if envs := m.submit(1, sl); len(envs) != 0 || !sl.ready.Load() {
			b.Fatalf("get %d not served locally: %d envelopes, ready %v", i, len(envs), sl.ready.Load())
		}
		select {
		case <-sl.wake:
		default:
			b.Fatalf("get %d settled without waking the writer", i)
		}
	}
	b.StopTimer()
	if sl.status != wire.StatusValue || &sl.payload[0] != &stored.Value[0] {
		b.Fatalf("get answered %v, not the stored value", sl.status)
	}
}

// TestLocalGetMakesNoOp: a version-exact Get through machine.submit, of
// a key the collocated replica holds and of a tombstone in the soft
// cache, settles its slot during submission and
// leaves the soft layer's op table and the machine's pending table as
// they were — no op ID is minted, so the next Put's ID follows the last
// one's.
func TestLocalGetMakesNoOp(t *testing.T) {
	soft, en, m := oneNodeMachine()
	stored := localReplica(soft, en, "live", 8)
	// A DEL entered here leaves its tombstone in the soft cache.
	del, _ := soft.Put(1, "gone", nil, nil, nil, true)
	soft.ForgetOp(del)
	first, _ := soft.Put(1, "other", []byte("v"), nil, nil, false)
	soft.ForgetOp(first)
	for _, tc := range []struct {
		key  string
		want wire.Status
	}{{"live", wire.StatusValue}, {"gone", wire.StatusNotFound}} {
		sl := &slot{kind: wire.OpGet, key: tc.key}
		if envs := m.submit(1, sl); len(envs) != 0 || !sl.ready.Load() || sl.status != tc.want {
			t.Fatalf("get %s: %d envelopes, ready %v, status %v; want a %v settled locally",
				tc.key, len(envs), sl.ready.Load(), sl.status, tc.want)
		}
		if tc.want == wire.StatusValue && &sl.payload[0] != &stored.Value[0] {
			t.Fatalf("get %s answered a copy, not the stored value", tc.key)
		}
	}
	if len(m.pending) != 0 {
		t.Fatalf("machine.pending holds %d slots after local Gets", len(m.pending))
	}
	if soft.LocalReads != 1 || soft.CacheHits != 1 {
		t.Fatalf("LocalReads = %d, CacheHits = %d; want 1 and 1", soft.LocalReads, soft.CacheHits)
	}
	next, _ := soft.Put(1, "other", []byte("w"), nil, nil, false)
	if next != first+1 {
		t.Fatalf("Put after local Gets has op ID %#x, want %#x: a Get made an op", next, first+1)
	}
}

// TestLocalGetCopiesNothing: a Get answered by the collocated replica
// completes with the very tuple the store holds and copies no value —
// neither for the op nor into the soft cache, which it leaves as it
// was: the replica already holds the tuple. The value is copied once,
// later, into the DDB1 response frame. The node is seeded as a replica
// that has heard of the key's version but never cached it.
func TestLocalGetCopiesNothing(t *testing.T) {
	soft, en, _ := oneNodeMachine()
	const key, size = "local/key", 1024
	stored := localReplica(soft, en, key, size)
	cached := soft.Cache.Len()
	const gets = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		id, envs := soft.Get(1, key)
		op, ok := soft.Op(id)
		if len(envs) != 0 || !ok || !op.Done || op.Tuple != stored {
			t.Fatalf("get %d not served locally with the stored tuple: envs %d, op %+v", i, len(envs), op)
		}
		soft.ForgetOp(id)
	}
	runtime.ReadMemStats(&after)
	if soft.LocalReads != gets || soft.Cache.Len() != cached {
		t.Fatalf("LocalReads = %d, cache holds %d tuples; want %d and %d", soft.LocalReads, soft.Cache.Len(), gets, cached)
	}
	if perGet := (after.TotalAlloc - before.TotalAlloc) / gets; perGet >= size {
		t.Fatalf("a local Get of a %d B value allocates %d B, want no copy of the value", size, perGet)
	}
	if now, _ := en.St.Peek(key); now != stored {
		t.Fatal("the store's tuple was replaced by a read")
	}
}
