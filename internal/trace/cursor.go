package trace

import (
	"time"

	"bba/internal/units"
)

// Cursor is a stateful sequential reader over a Trace. It remembers the
// segment the previous query landed in, so a caller whose query times are
// monotonically non-decreasing — the playback engine's session clock —
// advances in amortized O(1) per query instead of paying the stateless
// API's O(log n) binary search on every chunk.
//
// Results are bit-identical to the stateless Trace methods: both run the
// same integration cores, and the cursor only changes how the starting
// segment is found. Queries that jump backwards are legal and correct;
// they fall back to the binary search.
//
// A Cursor is not safe for concurrent use; sessions each hold their own.
type Cursor struct {
	t   *Trace
	idx int // segment the last query finished in
}

// Cursor returns a new sequential reader positioned at the start of t.
func (t *Trace) Cursor() *Cursor { return &Cursor{t: t} }

// Bind points the cursor at the start of t, reusing the cursor's storage.
// It is the allocation-free form of Trace.Cursor for callers — the batch
// session kernel — that keep cursors in flat per-lane arrays and rebind
// them to a new session's trace instead of allocating one per session.
func (c *Cursor) Bind(t *Trace) { c.t, c.idx = t, 0 }

// seek positions idx at the segment containing at. Forward motion walks
// segment by segment (amortized O(1) for monotone queries); a backward
// jump — a seek before the current segment — rebinds with binary search.
func (c *Cursor) seek(at time.Duration) int {
	t := c.t
	if at < 0 {
		c.idx = 0
		return 0
	}
	if at < t.segs[c.idx].start() {
		c.idx = t.index(at)
		return c.idx
	}
	for c.idx+1 < len(t.segs) && t.segs[c.idx+1].start() <= at {
		c.idx++
	}
	return c.idx
}

// RateAt returns the capacity at time at, like Trace.RateAt.
func (c *Cursor) RateAt(at time.Duration) units.BitRate {
	return c.t.segs[c.seek(at)].rate()
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
	n, i := c.t.bytesBetweenFrom(c.seek(from), from, to)
	c.idx = i
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
	d, i, ok := c.t.downloadTimeFrom(c.seek(start), start, n)
	if ok {
		c.idx = i
	}
	return d, ok
}
