package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"datadroplets"
)

// simBatch is the closed-loop depth on the simulator: this many ops are
// submitted together and share simulated rounds.
const simBatch = 64

// simCluster is the simulated deployment under load: the library facade
// over sim.Network, the same gossip, size estimation, sieve, repair and
// store code the live server runs, minus sockets and wall-clock ticks.
type simCluster struct {
	c      *datadroplets.Cluster
	ks     *keyset
	stream *opStream
	putLen int
	res    *runResult
}

func setUpSim(w workload, seed int64, ks *keyset, res *runResult) (*datadroplets.Cluster, error) {
	c := datadroplets.New(
		datadroplets.WithNodes(w.nodes),
		datadroplets.WithReplication(w.replication),
		datadroplets.WithSeed(seed),
	)
	c.Advance(30) // size estimators must settle before the first write
	const batch = 1000
	for at := 0; at < len(ks.names); at += batch {
		ops := make([]datadroplets.PutOp, min(batch, len(ks.names)-at))
		for i := range ops {
			v := make([]byte, w.valueLen)
			fillValue(v, ks.hashes[at+i], preloadWriter, uint64(at+i))
			ops[i] = datadroplets.PutOp{Key: ks.names[at+i], Value: v}
		}
		res.attempted += int64(len(ops))
		for i, err := range c.BatchPut(ops) {
			if err != nil {
				res.failed++
				c.Close()
				return nil, fmt.Errorf("preload PUT %s: %w", ops[i].Key, err)
			}
		}
	}
	for k := 0; k < len(ks.names); k += 100 {
		res.attempted++
		t, err := c.Get(ks.names[k])
		if err == nil {
			if _, _, ok := checkValue(t.Value, ks.hashes[k]); !ok {
				err = errors.New("value was not written for this key")
			}
		}
		if err != nil {
			res.failed++
			c.Close()
			return nil, fmt.Errorf("verify GET %s: %w", ks.names[k], err)
		}
	}
	return c, nil
}

// check verifies one finished op the way the serve workloads do.
func (s *simCluster) check(kind opKind, key int, t *datadroplets.Tuple, err error) string {
	switch kind {
	case opGet:
		if err != nil {
			return fmt.Sprintf("GET %s: %v", s.ks.names[key], err)
		}
		if _, _, ok := checkValue(t.Value, s.ks.hashes[key]); !ok {
			return fmt.Sprintf("GET %s: %d-byte value was not written for this key", s.ks.names[key], len(t.Value))
		}
	case opMiss:
		if err == nil {
			return fmt.Sprintf("GET %s: a value for a never-written key", s.ks.absent[key])
		}
		if !errors.Is(err, datadroplets.ErrNotFound) {
			return fmt.Sprintf("GET %s: %v", s.ks.absent[key], err)
		}
	default:
		if err != nil {
			return fmt.Sprintf("%s %s: %v", kind, s.ks.names[key], err)
		}
	}
	return ""
}

func (s *simCluster) record(msg string) {
	if msg == "" {
		return
	}
	s.res.failed++
	if len(s.res.violations) == 0 {
		s.res.violate("simulator: %s", msg)
	}
}

// run submits the next n ops together, steps the simulated network until
// all of them have completed, and verifies each. With n = 1 that is the
// synchronous client path: the whole network is stepped for one op. It
// returns the first op's kind and the wall time of the lot.
func (s *simCluster) run(n int) (opKind, time.Duration) {
	type sub struct {
		kind opKind
		key  int
		h    *datadroplets.Async
	}
	subs := make([]sub, n)
	t0 := time.Now()
	for i := range subs {
		kind, key := s.stream.next()
		subs[i] = sub{kind: kind, key: key}
		switch kind {
		case opGet:
			subs[i].h = s.c.GetAsync(s.ks.names[key])
		case opMiss:
			subs[i].h = s.c.GetAsync(s.ks.absent[key])
		case opPut:
			v := make([]byte, s.putLen) // the cluster keeps the slice
			s.stream.value(v, key)
			subs[i].h = s.c.PutAsync(s.ks.names[key], v, nil, nil)
		case opDel:
			subs[i].h = s.c.DeleteAsync(s.ks.names[key])
		}
	}
	s.c.Wait()
	d := time.Since(t0)
	s.res.attempted += int64(n)
	for _, sb := range subs {
		s.record(s.check(sb.kind, sb.key, sb.h.Tuple(), sb.h.Err()))
	}
	return subs[0].kind, d
}

// runSim is the simulator workload. There are no wall-clock arrivals to
// schedule, so its first phase issues ops one at a time, each stepping
// the simulated network until it completes — the wall time of an op is
// what simulating it costs — and its second phase keeps simBatch ops in
// flight for throughput. The two alternate in cycles, under the same
// median-window rule as on the serve workloads (it needs no settling).
func runSim(w workload, seed int64, pl plan, tr *tracer) (*runResult, error) {
	res := newRunResult()
	ks := newKeyset(seed, w.keys)
	var setups []float64
	var c *datadroplets.Cluster
	for i := 0; i < w.setups; i++ {
		if c != nil {
			c.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if c, err = setUpSim(w, seed, ks, res); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.Close()
	s := &simCluster{
		c: c, ks: ks, res: res,
		stream: newOpStream(seed, 0, 1, ks, w.mix, w.zipf),
		putLen: w.putLen,
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := time.Now().Add(pl.warmup); time.Now().Before(end); {
		s.run(1)
	}
	var p50, p90, p99 [nKinds][]float64
	var opP50, cpuPerOp, opsPerSec []float64
	for cycle := 0; cycle < pl.cycles; cycle++ {
		var lat [nKinds][]int64
		ops := 0
		cpu0 := processCPU()
		for end := time.Now().Add(pl.open); time.Now().Before(end); ops++ {
			kind, d := s.run(1)
			lat[kind] = append(lat[kind], int64(d))
		}
		cpuPerOp = append(cpuPerOp, float64((processCPU()-cpu0).Microseconds())/float64(ops))
		var every []int64
		for k := range lat {
			slices.Sort(lat[k])
			p50[k] = append(p50[k], nanIfEmpty(lat[k], 0.50))
			p90[k] = append(p90[k], nanIfEmpty(lat[k], 0.90))
			p99[k] = append(p99[k], nanIfEmpty(lat[k], 0.99))
			every = append(every, lat[k]...)
		}
		slices.Sort(every)
		opP50 = append(opP50, nanIfEmpty(every, 0.50))
		ops = 0
		t0 := time.Now()
		for time.Since(t0) < pl.closed {
			s.run(simBatch)
			ops += simBatch
		}
		opsPerSec = append(opsPerSec, float64(ops)/time.Since(t0).Seconds())
	}

	res.setEndToEnd(setups, typical(opsPerSec), typical(opP50))
	res.notef("set-up times %.3v s, simulated round %d at the end", setups, c.Round())
	res.notef("per-window get_p99_ms %.3v  put_p99_ms %.3v  cpu_us_per_op %.3v  batched ops/s %.0f",
		p99[opGet], p99[opPut], cpuPerOp, opsPerSec)

	if tr != nil {
		// No server, client or fabric is on this workload's path: their
		// load-derived metrics are reported as zero work done.
		for name, unit := range serveLoadLayer {
			res.layer[name] = metric{0, unit}
		}
		// The generator-side numbers exist here too: the "generator" is
		// the loop above.
		res.layer["loadgen.fail_share"] = metric{float64(res.failed) / float64(res.attempted), "share"}
		res.layer["loadgen.cpu_us_per_op"] = metric{typical(cpuPerOp), "us"}
		res.setKindLatencies(p50, p90, p99)
		runtime.ReadMemStats(&after)
		res.layer["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
		res.layer["runtime.gc_pause_total_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
		res.layer["runtime.heap_live_mb"] = metric{heapLiveMB(), "MB"}
		res.layer["runtime.goroutines_max"] = metric{float64(runtime.NumGoroutine()), "count"}
	}
	return res, nil
}

func nanIfEmpty(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return ms(quantile(sorted, p))
}
