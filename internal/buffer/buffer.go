// Package buffer implements playback-buffer accounting for a streaming
// video client.
//
// The buffer is the paper's central state variable. It is tracked in
// *seconds of video* (Section 2.1): every second of real time during
// playback removes one second of video, and each downloaded chunk adds V
// seconds. When the buffer runs dry mid-download, playback freezes — a
// rebuffer event — and resumes when the in-flight chunk lands. The paper's
// Figure 4 notes that "the buffer occupancy was not updated during
// rebuffering": draining is suspended while stalled, which is exactly how
// Advance accounts time here.
package buffer

import (
	"fmt"
	"time"
)

// Buffer tracks playback-buffer occupancy and the quality metrics derived
// from it. The zero value is not usable; initialize with Reset. Buffer is not
// safe for concurrent use; a player owns one buffer.
type Buffer struct {
	level  time.Duration
	max    time.Duration
	resume time.Duration

	started   bool // first chunk has arrived; playback has begun
	stalled   bool // playback frozen waiting for enough buffered video
	played    time.Duration
	stallTime time.Duration
	rebuffers int
}

// DefaultMax is the playback-buffer capacity of the paper's test vehicle:
// "Netflix's browser-based player ... happens to have a 240 second playback
// buffer".
const DefaultMax = 240 * time.Second

// DefaultResume is the occupancy a stalled player waits for before
// restarting playback. Without it, capacity below the lowest video rate
// would produce one rebuffer event per chunk (play four seconds, starve,
// repeat); real players coalesce that into a single longer rebuffer.
const DefaultResume = 8 * time.Second

// Reset returns the buffer to the empty state with capacity max and the
// default resume threshold. Buffers live by value inside their session, so
// a batch kernel keeps them in flat per-lane storage and reuses them across
// sessions. It panics if max is not positive: the capacity is a
// configuration constant, not runtime input.
func (b *Buffer) Reset(max time.Duration) {
	if max <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %v", max))
	}
	*b = Buffer{max: max, resume: DefaultResume}
}

// SetResume overrides the resume threshold; zero restarts playback on the
// first chunk after a stall.
func (b *Buffer) SetResume(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.resume = d
}

// Level returns the current occupancy in seconds of video.
func (b *Buffer) Level() time.Duration { return b.level }

// Playing reports whether video is currently being rendered (playback has
// started and is not stalled).
func (b *Buffer) Playing() bool { return b.started && !b.stalled }

// Started reports whether the first chunk has arrived and playback begun.
func (b *Buffer) Started() bool { return b.started }

// Rebuffers returns the number of rebuffer events so far.
func (b *Buffer) Rebuffers() int { return b.rebuffers }

// StallTime returns total time spent frozen in rebuffer events.
func (b *Buffer) StallTime() time.Duration { return b.stallTime }

// Played returns total video time rendered to the viewer.
func (b *Buffer) Played() time.Duration { return b.played }

// Advance accounts for d of real time passing while the client waits (for a
// download or idling). If playback is active the buffer drains at unit rate;
// if it empties before d elapses, the remainder is a stall and a rebuffer
// event is recorded. Advance with non-positive d is a no-op.
func (b *Buffer) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	if !b.started {
		// Pre-playback (join) time is excluded from playback metrics,
		// matching the paper ("the startup phase does not refer to the
		// join delay").
		return
	}
	if b.stalled {
		b.stallTime += d
		return
	}
	if b.level >= d {
		b.level -= d
		b.played += d
		return
	}
	// Drained dry mid-interval: play what we had, stall for the rest.
	remaining := d - b.level
	b.played += b.level
	b.level = 0
	b.stalled = true
	b.rebuffers++
	b.stallTime += remaining
}

// AddChunk adds v seconds of video (one downloaded chunk). It starts
// playback on the first chunk; a stall in progress ends only once the
// occupancy reaches the resume threshold. Occupancy is clamped at capacity;
// the player is responsible for pausing requests when the buffer is full
// (the ON-OFF pattern of Section 8), so hitting the clamp indicates a
// scheduling bug upstream and is reported.
func (b *Buffer) AddChunk(v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("buffer: non-positive chunk duration %v", v)
	}
	prev := b.level
	b.level += v
	if b.level > b.max {
		b.level = b.max
	}
	b.started = true
	if b.stalled && b.level >= b.resume {
		b.stalled = false
	}
	if prev+v > b.max {
		return fmt.Errorf("buffer: overflow adding %v to %v/%v", v, prev, b.max)
	}
	return nil
}

// HasSpaceFor reports whether a chunk of duration v fits without clamping.
func (b *Buffer) HasSpaceFor(v time.Duration) bool { return b.level+v <= b.max }

// TimeUntilSpaceFor returns how long playback must drain before a chunk of
// duration v fits. It returns 0 when the chunk already fits and is only
// meaningful while playback is active.
func (b *Buffer) TimeUntilSpaceFor(v time.Duration) time.Duration {
	need := b.level + v - b.max
	if need < 0 {
		return 0
	}
	return need
}

// Resume force-ends a stall regardless of the resume threshold. The player
// uses it when no further downloads are coming (end of title), where
// holding out for the threshold would freeze forever.
func (b *Buffer) Resume() {
	if b.started {
		b.stalled = false
	}
}

// Flush discards all buffered video — a viewer seek. The wait for the
// first post-seek chunk is join delay, not a rebuffer, so playback state
// returns to not-started while the play/stall accounting persists.
func (b *Buffer) Flush() {
	b.level = 0
	b.started = false
	b.stalled = false
}
