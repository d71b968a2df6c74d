package server

import (
	"fmt"
	"testing"
)

// runBatchingWorkload drives one deterministic same-node workload (puts,
// read-your-writes gets, deletes, miss checks) and returns each op's
// outcome as a string. Same-node ops are sequenced by one server, so the
// outcomes must not depend on how the fabric happened to batch its
// intake or when its asynchronous writers flushed.
func runBatchingWorkload(t *testing.T) []string {
	t.Helper()
	servers := startCluster(t, 3, nil)
	c := dial(t, servers[0])
	var out []string
	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("batch:%03d", i)
		ver, err := c.Put(key, []byte(fmt.Sprintf("value-%03d", i)))
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		out = append(out, fmt.Sprintf("put %s -> seq=%d writer=%s", key, ver.Seq, ver.Writer))
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("batch:%03d", i)
		val, err := c.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		out = append(out, fmt.Sprintf("get %s -> %s", key, val))
	}
	for i := 0; i < n; i += 2 {
		key := fmt.Sprintf("batch:%03d", i)
		ver, err := c.Del(key)
		if err != nil {
			t.Fatalf("del %s: %v", key, err)
		}
		out = append(out, fmt.Sprintf("del %s -> seq=%d", key, ver.Seq))
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("batch:%03d", i)
		val, err := c.Get(key)
		switch {
		case i%2 == 0:
			if err == nil {
				t.Fatalf("get %s after del: value %q", key, val)
			}
			out = append(out, fmt.Sprintf("get %s -> miss", key))
		default:
			if err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
			out = append(out, fmt.Sprintf("get %s -> %s", key, val))
		}
	}
	return out
}

// TestBatchingEquivalence: what a client sees does not depend on the
// fabric's timing. Two independently booted clusters — each batching
// driver intake and flushing peer writers as its own scheduling fell —
// must produce identical outcomes op by op. ("batchN-async" is the
// fabric's one configuration: batched intake, asynchronous writers.)
func TestBatchingEquivalence(t *testing.T) {
	want := runBatchingWorkload(t)
	t.Run("batchN-async", func(t *testing.T) {
		got := runBatchingWorkload(t)
		if len(got) != len(want) {
			t.Fatalf("op count %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d diverges:\n got: %s\nwant: %s", i, got[i], want[i])
			}
		}
	})
}
