package main

import "time"

// slot is the open-loop schedule's grain: every operation of a slot is
// due at the slot's start.
const slot = time.Millisecond

// pacer is a fixed open-loop schedule for one connection: slot i issues
// its share of ratePerSec, and latency is counted from the slot start
// whether or not the generator got there in time. The schedule depends
// on the rate alone, never on how the system responds.
type pacer struct {
	ratePerSec int64
	slots      int64
}

func newPacer(ratePerSec int, d time.Duration) pacer {
	return pacer{ratePerSec: int64(ratePerSec), slots: int64(d / slot)}
}

// through is the number of operations due before slot i starts.
func (p pacer) through(i int64) int64 {
	return i * p.ratePerSec * int64(slot) / int64(time.Second)
}

// opsIn is how many operations slot i issues. Summed over a whole
// number of seconds it is exactly ratePerSec per second.
func (p pacer) opsIn(i int64) int { return int(p.through(i+1) - p.through(i)) }

// due is the start of slot i relative to the schedule's start.
func (p pacer) due(i int64) time.Duration { return time.Duration(i) * slot }

// connRate splits rate over conns connections so the shares sum to rate.
func connRate(rate, conns, conn int) int {
	r := rate / conns
	if conn < rate%conns {
		r++
	}
	return r
}

// sleepUntil blocks until clock() reaches at.
func (s *sleeper) sleepUntil(at int64, clock func() int64) {
	for {
		d := at - clock()
		if d <= 0 {
			return
		}
		s.sleep(time.Duration(d))
	}
}
