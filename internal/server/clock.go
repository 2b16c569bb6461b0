package server

import "time"

// Clock is the only source of time for mcservd and mcfleet. Everything
// either daemon samples the clock for (job latency, probe latency,
// token-bucket refill, backoff sleeps) goes through this interface, so
// tests substitute a fake and the wallclock and clockflow analyzers have
// exactly one exemption to audit: the methods of a type implementing
// this interface.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that receives after d elapses.
	After(d time.Duration) <-chan time.Time
}

// sysClock is the real wall clock. Its two methods are the only direct
// time-package reads in either daemon; the wallclock analyzer exempts
// them structurally because sysClock implements Clock, the injection
// boundary. The time it gives is operational (latency, backoff, probes,
// quotas) and never reaches a simulation result or cache key, and
// clockflow proves interprocedurally that nothing bypasses the
// interface.
type sysClock struct{}

func (sysClock) Now() time.Time                         { return time.Now() }
func (sysClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock is the production Clock.
var SystemClock Clock = sysClock{}
