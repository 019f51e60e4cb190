package faults

import (
	"time"

	"bba/internal/stats"
)

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Backoff returns the capped exponential backoff before retry attempt
// (attempt ≥ 1), with deterministic jitter: the base delay doubles per
// attempt up to cap, then ±25% jitter derived from stats.Mix(seed, chunk,
// attempt) is applied. No wall-clock or shared RNG is read, so retry
// timing — and therefore every journal built on it — is reproducible.
func Backoff(base, cap time.Duration, seed uint64, chunk, attempt int) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if cap > 0 && d > cap {
		d = cap
	}
	// Jitter in [0.75, 1.25): desynchronizes retry herds without
	// sacrificing determinism.
	j := 0.75 + 0.5*unitFloat(stats.Mix(seed, uint64(chunk), uint64(attempt), 0x9e37))
	return time.Duration(float64(d) * j)
}

// AttemptFailProb is the probability a chunk attempt fails while an
// HTTP-path episode is active. It is deliberately below 1 so a retry
// inside the episode can still succeed occasionally — bursts in the wild
// are lossy, not absolute.
const AttemptFailProb = 0.9

// SessionInjector makes per-chunk fault decisions for the virtual-time
// player. It is stateless: every decision is a pure function of (seed,
// chunk, attempt) and the schedule, so a shared injector is safe for
// concurrent paired sessions and identical coordinates always reproduce
// identical fault histories.
type SessionInjector struct {
	sched *Schedule
	seed  uint64

	// StallTimeout is the virtual cost of an attempt lost to a stalled
	// body — the client waits its per-chunk timeout (default 8 s).
	StallTimeout time.Duration
	// ErrorDelay is the virtual cost of a 503 round trip (default 250 ms).
	ErrorDelay time.Duration
	// ResetDelay is the virtual cost of a mid-download reset (default 1 s:
	// part of the chunk transferred, then the teardown).
	ResetDelay time.Duration
}

// NewSessionInjector builds an injector for the schedule, deterministic in
// seed.
func NewSessionInjector(s *Schedule, seed int64) *SessionInjector {
	in := new(SessionInjector)
	in.Reset(s, seed)
	return in
}

// Reset re-arms in, in place, as NewSessionInjector(s, seed) would build
// it, default delays included: the allocation-free form for a caller that
// owns in and arms it once per session.
func (in *SessionInjector) Reset(s *Schedule, seed int64) {
	*in = SessionInjector{
		sched:        s,
		seed:         stats.SplitMix64(uint64(seed)),
		StallTimeout: 8 * time.Second,
		ErrorDelay:   250 * time.Millisecond,
		ResetDelay:   time.Second,
	}
}

// ChunkFault decides whether attempt (0-based) of chunk fails at session
// time now. It returns the fault's telemetry label, the virtual time the
// failure costs, and whether the attempt failed. It implements the
// player's injector hook.
func (in *SessionInjector) ChunkFault(now time.Duration, chunk, attempt int) (label string, delay time.Duration, failed bool) {
	kind, failed := in.fault(now, chunk, attempt)
	switch {
	case !failed:
		return "", 0, false
	case kind == StallBody:
		delay = in.StallTimeout
	case kind == ConnReset:
		delay = in.ResetDelay
	default:
		delay = in.ErrorDelay
	}
	return kind.String(), delay, true
}

// fault is the one fault decision, shared by the simulator (ChunkFault)
// and the origin (HTTPInjector.Decide): attempt (0-based) of chunk fails
// at session time now when an HTTP-path episode is active and the hash of
// (seed, kind, chunk, attempt) falls below AttemptFailProb.
func (in *SessionInjector) fault(now time.Duration, chunk, attempt int) (Kind, bool) {
	if in == nil || in.sched.Empty() {
		return 0, false
	}
	f, ok := in.sched.ActiveHTTP(now)
	if !ok || unitFloat(stats.Mix(in.seed, uint64(f.Kind), uint64(chunk), uint64(attempt))) >= AttemptFailProb {
		return 0, false
	}
	return f.Kind, true
}

// RequestLatency returns the extra first-byte delay a request issued at
// session time now pays under an active latency spike. It implements the
// player's latency hook.
func (in *SessionInjector) RequestLatency(now time.Duration) time.Duration {
	if in == nil || in.sched.Empty() {
		return 0
	}
	if f, ok := in.sched.Active(LatencySpike, now); ok {
		return f.Latency
	}
	return 0
}

// Schedule returns the schedule the injector draws decisions from.
func (in *SessionInjector) Schedule() *Schedule { return in.sched }
