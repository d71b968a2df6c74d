// Client-history recording for the consistency oracle. A History is the
// per-run log of client-visible operations — who wrote/read which key,
// which version was written or observed, and when the operation was
// issued and completed — in a deterministic order, so that equal seeds
// produce byte-identical histories at every fabric worker count. The
// oracle (internal/oracle) checks session guarantees against it.
package workload

import (
	"fmt"
	"math/rand"

	"datadroplets/internal/sim"
	"datadroplets/internal/tuple"
)

// OpKind tags a history operation.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one client-visible operation. For writes, Version is the
// version the sequencer assigned and Completed is the round the first
// storage acknowledgement reached the client's origin (0 while
// unacknowledged). For reads, Version is the observed version (zero on
// a miss) and Completed is the round the read resolved (all replies
// arrived, or the deadline elapsed); Pending marks reads the run ended
// before resolving — the oracle skips them.
type Op struct {
	Client    int
	Kind      OpKind
	Key       string
	Version   tuple.Version
	Issued    sim.Round
	Completed sim.Round
	Miss      bool // read resolved without observing any copy
	Pending   bool // read never resolved before the run ended
}

// String renders the op as one log line.
func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		ack := "unacked"
		if o.Completed > 0 {
			ack = fmt.Sprintf("acked@%d", o.Completed)
		}
		return fmt.Sprintf("c%d write %s v%s issued@%d %s", o.Client, o.Key, o.Version, o.Issued, ack)
	default:
		switch {
		case o.Pending:
			return fmt.Sprintf("c%d read %s pending issued@%d", o.Client, o.Key, o.Issued)
		case o.Miss:
			return fmt.Sprintf("c%d read %s miss issued@%d done@%d", o.Client, o.Key, o.Issued, o.Completed)
		default:
			return fmt.Sprintf("c%d read %s v%s issued@%d done@%d", o.Client, o.Key, o.Version, o.Issued, o.Completed)
		}
	}
}

// History is a recorded operation log. The zero value is a disabled
// recorder: every method is a cheap no-op, so the scenario workload can
// call it unconditionally with negligible overhead when recording is
// off.
type History struct {
	enabled bool
	Ops     []Op
}

// NewHistory returns an enabled recorder.
func NewHistory() *History { return &History{enabled: true} }

// Enabled reports whether the recorder captures operations.
func (h *History) Enabled() bool { return h != nil && h.enabled }

// Append records an op and returns its index (-1 when disabled).
func (h *History) Append(op Op) int {
	if !h.Enabled() {
		return -1
	}
	h.Ops = append(h.Ops, op)
	return len(h.Ops) - 1
}

// Len returns the number of recorded ops.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	return len(h.Ops)
}

// Digest folds every recorded field into one value; two histories are
// byte-identical iff their digests agree (modulo hash collisions). The
// determinism suite compares digests across fabric worker counts.
func (h *History) Digest() uint64 {
	if h == nil {
		return 0
	}
	d := uint64(0x0a11ce5e55104775)
	for _, op := range h.Ops {
		d = histMix(d, uint64(op.Client))
		d = histMix(d, uint64(op.Kind))
		for _, c := range []byte(op.Key) {
			d = histMix(d, uint64(c))
		}
		d = histMix(d, op.Version.Seq)
		d = histMix(d, uint64(op.Version.Writer))
		d = histMix(d, uint64(op.Issued))
		d = histMix(d, uint64(op.Completed))
		flags := uint64(0)
		if op.Miss {
			flags |= 1
		}
		if op.Pending {
			flags |= 2
		}
		d = histMix(d, flags)
	}
	return d
}

// histMix is a splitmix64-style avalanche step.
func histMix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// Read-key distributions for the scenario client workload. The uniform
// default consumes exactly one rng.Intn(n) per draw — byte-identical to
// the legacy inline draw — while the skewed options model what
// production read traffic actually looks like: a uniform-random read
// workload almost never revisits a recently-diverged key, so a
// consistency check against it is artificially easy.
const (
	// ReadDistUniform draws keys uniformly (the legacy default).
	ReadDistUniform = "uniform"
	// ReadDistZipf draws keys Zipf-distributed (YCSB-like skew ~1.07):
	// a heavy head of hot keys with a long tail.
	ReadDistZipf = "zipf"
	// ReadDistHot sends 90% of reads to the hottest 10% of the key
	// space — the classic hot-key regime.
	ReadDistHot = "hot"
	// ReadDistScan reads sequential key windows (16 keys per run,
	// restarting at a random position) — scan-heavy traffic that sweeps
	// cold regions a point-read workload never touches.
	ReadDistScan = "scan"
)

// scanRunLen is the sequential window length of ReadDistScan.
const scanRunLen = 16

// NewKeyChooser returns a seeded key-index chooser over [0, n) for the
// named distribution ("" selects uniform). All randomness flows from
// rng, so a chooser is deterministic given the seed and the call count.
func NewKeyChooser(dist string, n int, rng *rand.Rand) (func() int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: key chooser needs n > 0, have %d", n)
	}
	switch dist {
	case "", ReadDistUniform:
		return func() int { return rng.Intn(n) }, nil
	case ReadDistZipf:
		if n < 2 {
			return func() int { return 0 }, nil
		}
		z := rand.NewZipf(rng, 1.07, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }, nil
	case ReadDistHot:
		hot := n / 10
		if hot < 1 {
			hot = 1
		}
		return func() int {
			if rng.Float64() < 0.9 {
				return rng.Intn(hot)
			}
			if hot >= n {
				return rng.Intn(n)
			}
			return hot + rng.Intn(n-hot)
		}, nil
	case ReadDistScan:
		cursor, left := 0, 0
		return func() int {
			if left == 0 {
				cursor = rng.Intn(n)
				left = scanRunLen
			}
			k := cursor
			cursor = (cursor + 1) % n
			left--
			return k
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown read distribution %q (have %s, %s, %s, %s)",
			dist, ReadDistUniform, ReadDistZipf, ReadDistHot, ReadDistScan)
	}
}

// ReadDists lists the supported read distributions.
func ReadDists() []string {
	return []string{ReadDistUniform, ReadDistZipf, ReadDistHot, ReadDistScan}
}
