package faults

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/stats"
)

// Transport wraps an http.RoundTripper and applies a fault schedule to
// live requests from the client side: 503s are synthesized without
// contacting the server, latency spikes delay the round trip, stalled
// bodies and connection resets corrupt the response stream after it
// starts. Capacity faults (Blackout, Collapse) are not Transport's job —
// shaping bytes-per-second belongs to netem.Shaper via ApplyToTrace.
//
// The schedule's clock starts at the Transport's first request (or at an
// explicit Start). Which requests inside an episode fail is decided by
// hashing (seed, request sequence), so a given Transport replays the same
// fault pattern for the same request order.
type Transport struct {
	// Base performs real round trips; http.DefaultTransport when nil.
	Base http.RoundTripper
	// Schedule holds the episodes to apply; a nil or empty schedule makes
	// the Transport transparent.
	Schedule *Schedule
	// Seed drives per-request fault decisions.
	Seed int64
	// OnFault, when set, observes each injected fault with the request
	// sequence number.
	OnFault func(kind Kind, seq int64)

	// Sleep replaces time.Sleep for latency spikes and stalls (tests).
	Sleep func(time.Duration)
	// Now replaces time.Now (tests).
	Now func() time.Time

	seq     atomic.Int64
	startMu sync.Mutex
	start   time.Time
}

// Start pins the schedule clock's zero. Unset, it is the first request.
func (t *Transport) Start(at time.Time) {
	t.startMu.Lock()
	t.start = at
	t.startMu.Unlock()
}

func (t *Transport) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

func (t *Transport) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if t.Sleep != nil {
		t.Sleep(d)
		return
	}
	time.Sleep(d)
}

// elapsed returns the schedule-clock time of a request issued now.
func (t *Transport) elapsed() time.Duration {
	now := t.now()
	t.startMu.Lock()
	if t.start.IsZero() {
		t.start = now
	}
	start := t.start
	t.startMu.Unlock()
	return now.Sub(start)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Schedule.Empty() {
		return base.RoundTrip(req)
	}
	seq := t.seq.Add(1) - 1
	at := t.elapsed()

	if f, ok := t.Schedule.Active(LatencySpike, at); ok {
		t.emit(LatencySpike, seq)
		t.sleep(f.Latency)
	}

	f, ok := t.Schedule.ActiveHTTP(at)
	if !ok || unitFloat(stats.Mix(stats.SplitMix64(uint64(t.Seed)), uint64(f.Kind), uint64(seq))) >= AttemptFailProb {
		return base.RoundTrip(req)
	}
	t.emit(f.Kind, seq)
	switch f.Kind {
	case ServerError:
		// Synthesized at the edge: the request never reaches the server.
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": {"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("faults: injected 503\n")),
			Request:    req,
		}, nil
	case StallBody:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &faultBody{rc: resp.Body, stall: t.sleepFn(), limit: 1 << 10}
		return resp, nil
	case ConnReset:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &faultBody{rc: resp.Body, reset: true, limit: 1 << 10}
		return resp, nil
	}
	return base.RoundTrip(req)
}

func (t *Transport) emit(kind Kind, seq int64) {
	if t.OnFault != nil {
		t.OnFault(kind, seq)
	}
}

func (t *Transport) sleepFn() func(time.Duration) {
	if t.Sleep != nil {
		return t.Sleep
	}
	return time.Sleep
}

// ErrConnReset is the error an injected mid-download reset surfaces.
var ErrConnReset = fmt.Errorf("faults: injected connection reset")

// faultBody delivers up to limit bytes of the wrapped body, then either
// stalls (blocking reads for 30 s apiece so the caller's timeout fires) or
// resets (returning ErrConnReset).
type faultBody struct {
	rc    io.ReadCloser
	limit int64
	stall func(time.Duration)
	reset bool
	read  int64
}

func (b *faultBody) Read(p []byte) (int, error) {
	if b.read >= b.limit {
		if b.reset {
			return 0, ErrConnReset
		}
		// Slowloris: never deliver, never EOF — block until the caller's
		// deadline cancels the request.
		b.stall(30 * time.Second)
		return 0, nil
	}
	if rem := b.limit - b.read; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := b.rc.Read(p)
	b.read += int64(n)
	return n, err
}

func (b *faultBody) Close() error { return b.rc.Close() }
