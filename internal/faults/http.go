package faults

import (
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/stats"
)

// HTTPInjector drives a dash server's fault-injecting mode: the server
// asks it, once per chunk request, which fault (if any) to apply. The
// schedule clock starts at the first request (or an explicit Start), and
// which requests inside an episode fail is hashed from (seed, request
// sequence).
type HTTPInjector struct {
	// Schedule holds the episodes to apply; nil or empty disables injection.
	Schedule *Schedule
	// Seed drives per-request fault decisions.
	Seed int64
	// StallSleep is how long a stalled response hangs mid-body before the
	// handler gives up (default 30 s — longer than any sane client timeout).
	StallSleep time.Duration
	// OnFault, when set, observes each injected fault with the request
	// sequence number.
	OnFault func(kind Kind, seq int64)
	// Now replaces time.Now (tests).
	Now func() time.Time

	seq     atomic.Int64
	startMu sync.Mutex
	start   time.Time
}

// Start pins the schedule clock's zero. Unset, it is the first request.
func (in *HTTPInjector) Start(at time.Time) {
	in.startMu.Lock()
	in.start = at
	in.startMu.Unlock()
}

// Request registers the next chunk request and returns its fault decision:
// the extra first-byte latency an active latency spike imposes, and — when
// fault is true — the HTTP-path fault kind the handler must act out
// (ServerError → 503, StallBody → partial body then hang, ConnReset →
// partial body then abort).
func (in *HTTPInjector) Request() (latency time.Duration, kind Kind, fault bool) {
	if in == nil || in.Schedule.Empty() {
		return 0, 0, false
	}
	now := time.Now
	if in.Now != nil {
		now = in.Now
	}
	at := func() time.Duration {
		n := now()
		in.startMu.Lock()
		defer in.startMu.Unlock()
		if in.start.IsZero() {
			in.start = n
		}
		return n.Sub(in.start)
	}()
	seq := in.seq.Add(1) - 1

	if f, ok := in.Schedule.Active(LatencySpike, at); ok {
		latency = f.Latency
		in.emit(LatencySpike, seq)
	}
	f, ok := in.Schedule.ActiveHTTP(at)
	if !ok || unitFloat(stats.Mix(stats.SplitMix64(uint64(in.Seed)), uint64(f.Kind), uint64(seq))) >= AttemptFailProb {
		return latency, 0, false
	}
	in.emit(f.Kind, seq)
	return latency, f.Kind, true
}

// Stall returns how long a stalled response should hang.
func (in *HTTPInjector) Stall() time.Duration {
	if in.StallSleep > 0 {
		return in.StallSleep
	}
	return 30 * time.Second
}

func (in *HTTPInjector) emit(kind Kind, seq int64) {
	if in.OnFault != nil {
		in.OnFault(kind, seq)
	}
}
