//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where there is no timerfd; open-loop
// latencies then include the runtime's millisecond timer grain.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (s *sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (s *sleeper) close() {}
