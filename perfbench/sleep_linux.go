package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// onPacedThread runs f on its own OS thread with a precise sleepUntil. The
// Go timer wakes an idle process up to a millisecond late, which would
// dominate the microsecond-scale requests of serve-light; nanosleep with a
// 1 ns timer slack wakes within tens of microseconds.
func onPacedThread(f func(sleepUntil func(time.Time))) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Never unlocked: the thread, with its changed timer slack, exits
		// with this goroutine instead of returning to the scheduler.
		runtime.LockOSThread()
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // a failure only costs precision
		f(func(t time.Time) {
			for d := time.Until(t); d > 0; d = time.Until(t) {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
			}
		})
	}()
	<-done
}
