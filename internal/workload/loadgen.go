package workload

import "math/rand"

// Waiter is the resolved-state surface of an async operation handle.
// datadroplets.Async and core.Pending both satisfy it.
type Waiter interface {
	Done() bool
	Err() error
}

// AsyncClient abstracts the pipelined client engine the closed-loop
// generator drives. It is defined here (not in core) so the generator
// can exercise any engine — the in-process cluster, the public facade,
// or a future networked client — without an import cycle.
type AsyncClient interface {
	// SubmitPut starts a write and returns its handle.
	SubmitPut(key string, value []byte) Waiter
	// SubmitGet starts a read and returns its handle.
	SubmitGet(key string) Waiter
	// Step advances the engine one round, resolving completed handles.
	Step()
}

// ClosedLoop is a closed-loop load generator: it keeps a target number
// of operations in flight (the window), topping the window up as
// operations resolve, until Total operations have completed. Window=1
// degenerates to the serial client path.
type ClosedLoop struct {
	// Window is the target number of in-flight ops. Zero means 1.
	Window int
	// Total is the number of operations to run. Zero means 256.
	Total int
	// Mix chooses read-vs-write and the key for each op.
	Mix Mix
	// ValueBytes sizes write payloads. Zero means 16.
	ValueBytes int
	// IsMiss classifies benign errors (e.g. not-found reads racing
	// their writes) into Misses instead of Errors. Nil counts every
	// error as an Error.
	IsMiss func(error) bool
	// MaxRounds bounds the run so a client that never resolves an op
	// (e.g. its node died) cannot hang the loop. Zero means 200 rounds
	// per op — far beyond any healthy engine's per-op deadline.
	MaxRounds int
}

// ClosedLoopResult summarises one closed-loop run.
type ClosedLoopResult struct {
	Ops    int // operations completed
	Reads  int
	Writes int
	Misses int // benign errors per IsMiss (reads of unwritten keys)
	Errors int // operations that resolved with any other error
	Rounds int // simulation rounds stepped while the loop ran
}

// Run drives the client until Total operations complete. All randomness
// (op mix, keys, payloads) comes from rng, so equal seeds give equal
// request sequences.
func (cl ClosedLoop) Run(client AsyncClient, rng *rand.Rand) ClosedLoopResult {
	window := cl.Window
	if window <= 0 {
		window = 1
	}
	total := cl.Total
	if total <= 0 {
		total = 256
	}
	valueBytes := cl.ValueBytes
	if valueBytes <= 0 {
		valueBytes = 16
	}
	maxRounds := cl.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200 * total
	}

	var res ClosedLoopResult
	issued := 0
	type slot struct {
		w    Waiter
		read bool
	}
	inflight := make([]slot, 0, window)
	for res.Ops < total {
		// Top the window up.
		for issued < total && len(inflight) < window {
			key := cl.Mix.Keys()
			if cl.Mix.NextOp(rng) {
				inflight = append(inflight, slot{w: client.SubmitGet(key), read: true})
			} else {
				value := make([]byte, valueBytes)
				rng.Read(value)
				inflight = append(inflight, slot{w: client.SubmitPut(key, value)})
			}
			issued++
		}
		// Reap immediately-resolved ops (cache hits, submit errors)
		// before stepping, so the window refills without wasted rounds.
		live := inflight[:0]
		for _, s := range inflight {
			if s.w.Done() {
				res.Ops++
				if s.read {
					res.Reads++
				} else {
					res.Writes++
				}
				if err := s.w.Err(); err != nil {
					if cl.IsMiss != nil && cl.IsMiss(err) {
						res.Misses++
					} else {
						res.Errors++
					}
				}
				continue
			}
			live = append(live, s)
		}
		inflight = live
		// Every issued op is either reaped or in flight, so an empty
		// window here means more ops must be submitted first — skip the
		// step and refill.
		if res.Ops >= total || len(inflight) == 0 {
			continue
		}
		if res.Rounds >= maxRounds {
			// Stuck ops (dead node, broken client): abandon what's left
			// rather than spin forever; they stay uncounted.
			break
		}
		client.Step()
		res.Rounds++
	}
	return res
}
