// Package netem shapes real network connections to follow a capacity
// trace, so the HTTP streaming substrate exercises the same end-to-end
// path a production client does — TCP sockets, HTTP requests, chunk
// downloads — while the available bandwidth varies exactly like the
// simulator's virtual links.
//
// The shaper is a token bucket refilled at the trace's instantaneous rate.
// Reads (or writes) consume tokens; when the bucket runs dry the operation
// sleeps until enough tokens accumulate. Shaping reads on the client side
// of a connection emulates a bandwidth-limited downstream path.
package netem

import (
	"net"
	"sync"
	"time"

	"bba/internal/trace"
	"bba/internal/units"
)

// Shaper rations bytes according to a capacity trace. It is safe for
// concurrent use; concurrent consumers share the link's capacity.
type Shaper struct {
	tr    *trace.Trace
	start time.Time
	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	consumed int64 // bytes granted so far
}

// NewShaper returns a shaper that follows tr, with t=0 anchored at the
// first Take call.
func NewShaper(tr *trace.Trace) *Shaper {
	return &Shaper{tr: tr, now: time.Now, sleep: time.Sleep}
}

// newShaperClock is a test hook: inject a fake clock.
func newShaperClock(tr *trace.Trace, now func() time.Time, sleep func(time.Duration)) *Shaper {
	return &Shaper{tr: tr, now: now, sleep: sleep}
}

// Take blocks until n bytes of link capacity are available and consumes
// them. It returns the time it waited. Take of a non-positive count
// returns immediately.
//
// Zero-rate (blackout) segments are first-class: while the trace delivers
// nothing there is no finite completion estimate to sleep for, so Take
// parks in bounded 20ms polls — no busy-wait and no division by the zero
// rate — and wakes within one poll of capacity returning. A transfer
// issued mid-blackout completes as soon as the following segment has
// delivered its bytes, the way a stalled TCP stream resumes.
func (s *Shaper) Take(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	if s.start.IsZero() {
		s.start = s.now()
	}
	// Budget: bytes the trace has delivered from t=0 to now must cover
	// consumed+n; otherwise wait until the trace catches up.
	target := s.consumed + int64(n)
	s.consumed = target
	start := s.start
	s.mu.Unlock()

	var waited time.Duration
	for {
		elapsed := s.now().Sub(start)
		if s.tr.BytesBetween(0, elapsed) >= target {
			return waited
		}
		// Estimate the remaining wait from the current rate; poll in
		// small steps to track rate changes.
		rate := s.tr.RateAt(elapsed)
		missing := target - s.tr.BytesBetween(0, elapsed)
		var d time.Duration
		if rate > 0 {
			d = rate.DurationFor(missing)
		} else {
			d = 20 * time.Millisecond
		}
		if d > 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		if d < time.Millisecond {
			d = time.Millisecond
		}
		s.sleep(d)
		waited += d
	}
}

// Rate reports the trace capacity at the shaper's current session time.
func (s *Shaper) Rate() units.BitRate {
	s.mu.Lock()
	start := s.start
	s.mu.Unlock()
	if start.IsZero() {
		return s.tr.RateAt(0)
	}
	return s.tr.RateAt(s.now().Sub(start))
}

// Conn wraps a net.Conn, shaping the read side through a Shaper. Writes
// pass through unshaped (requests are tiny compared to video chunks).
type Conn struct {
	net.Conn
	shaper    *Shaper
	chunkSize int
}

// NewConn wraps c with read-side shaping. Multiple Conns may share one
// Shaper to model a shared bottleneck.
func NewConn(c net.Conn, s *Shaper) *Conn {
	return &Conn{Conn: c, shaper: s, chunkSize: 16 * 1024}
}

// Read reads up to the shaping granularity and charges the bytes actually
// read against the link before returning them, so sustained reads observe
// the trace's rate.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > c.chunkSize {
		p = p[:c.chunkSize]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.shaper.Take(n)
	}
	return n, err
}
