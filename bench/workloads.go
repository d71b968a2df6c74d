package main

import "time"

// workload is one fixed traffic pattern. Nothing here is calibrated at
// run time: parent and change must see the same offered load, so the
// rates are constants sized once on the reference host (README.md).
type workload struct {
	name string
	// sim selects the simulator: the ops run through the library facade
	// on sim.Network instead of through servers on TCP.
	sim bool

	nodes       int
	replication int
	// tick overrides the server's protocol round length; zero keeps the
	// shipped default (200 ms).
	tick time.Duration

	keys     int // preloaded keys
	valueLen int // bytes per preloaded value
	putLen   int // bytes per value written under load
	zipf     float64
	mix      mix
	// rate is the open-loop offered load in ops/s, about a quarter of
	// the workload's saturation throughput on the reference host. The
	// simulator has no wall-clock arrivals and leaves it zero.
	rate int
	// setups is how many times the cluster is built and preloaded;
	// setup_s is their median and the last one is measured.
	setups int
	// extra workloads are not in BENCHMARK.json: whoever judges a change
	// by the manifest runs every listed workload some twenty times inside
	// an hour, and on this host a run must be near a minute long to
	// repeat, which leaves room for two. `go run ./bench` runs the extra
	// ones too; nothing holds them to a bound.
	extra bool
}

var workloads = []workload{
	// 15 000 keys, not the 20 000 of the extra workloads: on the reference
	// host a 20 000-key set-up takes 0.4 s, two default protocol rounds
	// almost to the millisecond, and ends before or after the second
	// round's gossip burst (0.38 s or 0.47 s) as the host's speed that
	// minute decides, which no median steadies. At 15 000 it ends
	// mid-round (0.29 s).
	{
		name: "serve-read", nodes: 3, replication: 3,
		keys: 15000, valueLen: 128, putLen: 128,
		mix:  mix{get: 0.95, put: 0.05},
		rate: 30000, setups: 5,
	},
	{
		name: "serve-write", nodes: 3, replication: 3,
		keys: 15000, valueLen: 128, putLen: 1024,
		mix:  mix{put: 0.90, del: 0.10},
		rate: 5000, setups: 5,
	},
	{
		name: "serve-mixed", nodes: 5, replication: 3, tick: 20 * time.Millisecond,
		keys: 20000, valueLen: 128, putLen: 128, zipf: 1.1,
		mix:  mix{get: 0.60, miss: 0.10, put: 0.30},
		rate: 5000, setups: 3, extra: true,
	},
	{
		// Eight persistent nodes is as many as one read probes (8 random
		// starting points): every read reaches every node, so a read of
		// a live key cannot miss. On larger simulated clusters reads are
		// bounded random probes and one in some ten thousand misses by
		// design, which a benchmark that tolerates no failed op cannot
		// use. Paper-scale simulator behaviour is in the sim.* probes.
		name: "sim-epidemic", sim: true, nodes: 8, replication: 3,
		keys: 20000, valueLen: 128, putLen: 128,
		mix:    mix{get: 0.60, miss: 0.10, put: 0.30},
		setups: 3, extra: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Phase plan of a run measuring for `seconds`: the measured time is
// split into cycles of one open-loop window, one closed-loop window and
// a discarded settling stretch at the open-loop rate. Alternating the
// two loops, instead of running one after the other, spreads both over
// the whole run: this host changes speed for tens of seconds at a time,
// and a metric measured in one stretch of the run inherits whatever the
// host did then. An open window spans ten default protocol rounds, one
// anti-entropy period, so every periodic background activity falls
// inside every one.
const (
	openWindow   = 2 * time.Second
	closedWindow = 1500 * time.Millisecond
	settle       = 500 * time.Millisecond
	warmup       = 2 * time.Second
)

type plan struct {
	warmup, open, closed, settle time.Duration
	cycles                       int
	visProbes                    int
}

// makePlan lays the phases out. A run shorter than one cycle (the smoke
// tests) gets one cycle scaled down to fit. A traced run measures one
// cycle: its numbers explain, they are never the end-to-end ones.
func makePlan(seconds int, traced bool) plan {
	p := plan{warmup: warmup, open: openWindow, closed: closedWindow, settle: settle}
	total := time.Duration(seconds) * time.Second
	cycle := p.open + p.closed + p.settle
	p.cycles = int(total / cycle)
	if p.cycles == 0 {
		p.cycles = 1
		p.open = p.open * total / cycle
		p.closed = p.closed * total / cycle
		p.settle = p.settle * total / cycle
		p.warmup = p.open
	}
	if traced {
		p.cycles = 1
		p.visProbes = 500
	}
	return p
}
