package faults

import (
	"time"

	"bba/internal/stats"
)

// HTTPInjector drives a dash server's fault-injecting mode. It decides
// nothing of its own: each chunk request names its session, attempt and
// session clock, and Decide asks the simulator's SessionInjector, seeded
// by stats.Mix(Seed, session), so a session's faults over a socket replay
// in player.Run and do not depend on the other sessions the origin serves.
type HTTPInjector struct {
	// Schedule holds the episodes to apply, on each session's own clock;
	// nil or empty disables injection.
	Schedule *Schedule
	// Seed is the origin's fault seed; a session's decisions are keyed by
	// stats.Mix(Seed, session).
	Seed int64
	// StallSleep is how long a stalled response hangs mid-body before the
	// handler gives up; zero means 30 s, longer than any sane client
	// timeout.
	StallSleep time.Duration
}

// Decide returns the fault decision for attempt (0-based) of chunk, issued
// by session at session time at: the extra first-byte latency an active
// latency spike imposes, and — when fault is true — the HTTP-path fault
// kind the handler must act out (ServerError → 503, StallBody → partial
// body then hang, ConnReset → partial body then abort). Like the player's
// fault loop, the latency is paid before the attempt is decided, so the
// attempt is decided at at+latency.
func (in *HTTPInjector) Decide(session uint64, at time.Duration, chunk, attempt int) (latency time.Duration, kind Kind, fault bool) {
	var s SessionInjector
	s.Reset(in.Schedule, int64(stats.Mix(uint64(in.Seed), session)))
	latency = s.RequestLatency(at)
	kind, fault = s.fault(at+latency, chunk, attempt)
	return latency, kind, fault
}
