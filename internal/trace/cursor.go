package trace

import (
	"time"

	"bba/internal/units"
)

// Cursor is a stateful sequential reader over a Trace. It remembers the
// segment the previous query landed in, decoded, so a caller whose query
// times are monotonically non-decreasing — the playback engine's session
// clock — advances in amortized O(1) per query instead of paying the
// stateless API's O(log n) binary search on every chunk, and a chunk that
// starts inside that segment decodes nothing to find it.
//
// Results are bit-identical to the stateless Trace methods: both run the
// same integration cores, and the cursor only changes how the starting
// segment is found. Queries that jump backwards are legal and correct;
// they fall back to the binary search.
//
// A Cursor is not safe for concurrent use; sessions each hold their own.
type Cursor struct {
	t *Trace
	s span // the segment the last query finished in, decoded
}

// Cursor returns a new sequential reader positioned at the start of t.
func (t *Trace) Cursor() *Cursor {
	c := new(Cursor)
	c.Bind(t)
	return c
}

// Bind points the cursor at the start of t, reusing the cursor's storage.
// It is the allocation-free form of Trace.Cursor for callers — the batch
// session kernel — that keep cursors in flat per-lane arrays and rebind
// them to a new session's trace instead of allocating one per session.
func (c *Cursor) Bind(t *Trace) {
	c.t, c.s = t, span{}
	if t != nil {
		c.s = t.span(0)
	}
}

// seek positions the cursor at the segment containing at. A time inside
// the current segment decodes nothing; forward motion walks segment by
// segment (amortized O(1) for monotone queries); a backward jump — a seek
// before the current segment — rebinds with binary search.
func (c *Cursor) seek(at time.Duration) {
	if at >= c.s.start && at < c.s.end {
		return
	}
	t := c.t
	if at < c.s.start {
		c.s = t.span(t.index(at))
		return
	}
	for at >= c.s.end && c.s.i+1 < int(t.n) {
		c.s = t.next(c.s)
	}
}

// RateAt returns the capacity at time at, like Trace.RateAt.
func (c *Cursor) RateAt(at time.Duration) units.BitRate {
	c.seek(at)
	return c.s.rate
}

// BytesBetween integrates capacity over [from, to], like
// Trace.BytesBetween.
func (c *Cursor) BytesBetween(from, to time.Duration) int64 {
	if to <= from {
		return 0
	}
	if from < 0 {
		from = 0
	}
	c.seek(from)
	n, s := c.t.bytesBetweenFrom(c.s, from, to)
	c.s = s
	return n
}

// DownloadTime returns how long a transfer of n bytes starting at start
// takes, like Trace.DownloadTime. The cursor advances to the segment the
// transfer completes in, so the engine's next request — issued at or after
// the completion time — resumes without searching.
func (c *Cursor) DownloadTime(start time.Duration, n int64) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	if start < 0 {
		start = 0
	}
	c.seek(start)
	d, s, ok := c.t.downloadTimeFrom(c.s, start, n)
	if ok {
		c.s = s
	}
	return d, ok
}
