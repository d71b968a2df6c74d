package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// sampleEvery is the traced run's op sampling: one op in 64 records
// its spans, so tracing costs little and its cost is itself measured
// (trace.overhead_share).
const sampleEvery = 64

// span is one timed interval. Spans of one operation share Trace; Parent
// is the ID of the span that caused this one (0: a root). Times are
// nanoseconds since the run's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs pay nothing for it.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
	trace  uint64 // next trace id for probe spans
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// sampled reports whether the n-th op of a connection records its spans.
func (t *tracer) sampled(n uint64) bool { return t != nil && n%sampleEvery == 0 }

// opSpans records one sampled operation: the root span from due time to
// collection, and under it the four stages seen from outside the server.
func (t *tracer) opSpans(id uint64, kind opKind, due, enter, ret, settled, collected int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.nextID + 1
	t.nextID += 5
	t.spans = append(t.spans,
		span{id, root, 0, "op." + kind.String(), due, collected},
		span{id, root + 1, root, "loadgen.wait", due, enter},
		span{id, root + 2, root, "ddclient.do", enter, ret},
		span{id, root + 3, root, "server.roundtrip", ret, settled},
		span{id, root + 4, root, "ddclient.wait", settled, collected},
	)
}

// probe times fn as one span named probe.<layer>.<metric>.
func (t *tracer) probe(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.trace++
	// Probe traces count down from the top so they cannot collide with
	// op ids, which count up.
	t.spans = append(t.spans, span{^t.trace, t.nextID, 0, "probe." + name, int64(start), int64(end)})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
