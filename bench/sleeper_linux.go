package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper is a sub-millisecond sleep for the open-loop schedule.
// time.Sleep cannot provide one: an idle Go runtime parks in epoll_wait,
// whose timeout has millisecond grain, so a sleeper aiming at a 1 ms
// slot wakes half a millisecond late at the median — more than a whole
// Get takes. A timerfd read through the runtime's poller wakes on the
// kernel's high-resolution timer instead (median overshoot under
// 0.1 ms here) and, unlike nanosleep(2), holds no scheduler slot while
// it waits.
type sleeper struct {
	fd uintptr
	f  *os.File // nil: timerfd unavailable, fall back to time.Sleep
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (s *sleeper) sleep(d time.Duration) {
	if s.f != nil {
		spec := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno == 0 {
			var expirations [8]byte
			if _, err := s.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(d)
}

func (s *sleeper) close() {
	if s.f != nil {
		_ = s.f.Close()
	}
}
