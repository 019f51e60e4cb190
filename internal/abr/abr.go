// Package abr implements the paper's adaptive-bit-rate algorithms and the
// baselines they are evaluated against.
//
// The buffer-based algorithms (BBA) pick the video rate as a function of
// playback-buffer occupancy:
//
//   - BBA0 is the Section 4 baseline: a fixed 90-second reservoir, a linear
//     rate map reaching R_max at 90% of the buffer, and the hysteresis rule
//     of Algorithm 1.
//   - BBA1 (Section 5) handles VBR encodes: the reservoir is recomputed
//     from upcoming chunk sizes and the rate map generalizes to a chunk map
//     on the buffer–chunk-size plane.
//   - BBA2 (Section 6) adds the startup ramp: while the buffer is still
//     growing from empty it steps the rate up whenever the last chunk
//     downloaded sufficiently faster than real time (the ΔB rule), then
//     hands over to the BBA1 machinery for steady state.
//   - BBAOthers (Section 7) smooths switching with chunk lookahead, makes
//     the reservoir right-shift-only, and accrues outage protection.
//
// The baselines are Control — a representative capacity-estimation
// algorithm in the style of the paper's Figure 3, picking
// R = F(B)·Ĉ — and the degenerate RminAlways/RmaxAlways policies that
// bound the metric space from below and above.
//
// Algorithms are single-session state machines: construct a fresh instance
// per session (via New or a Factory) and call Next once per chunk request.
// They are not safe for concurrent use by multiple sessions. A registered
// built-in may come from instances handed back with Release, reset to its
// constructor's value, which plays exactly as a fresh one.
//
// The BBA-1 family has one decision path, whoever drives the session:
// Algorithm1Chunk scans the title's size column for the next chunk
// (Stream.Column), on a chunk map whose reservoir and endpoints come from a
// TitlePlan — the Figure 12 calculation for one (title, R_min, window) —
// and BBA-Others' lookahead reads the title's prefix sums
// (Stream.WindowSum). There is one plan per (title, R_min, window) per
// process, kept on the title (media.Video.Derived) and safe for concurrent
// use, so every session of a title reads the same table, whoever drives
// it and on whichever goroutine, and the plan dies with the title.
// DynamicReservoir is the paper's transcription the plans are tested
// against.
package abr

import (
	"time"

	"bba/internal/media"
	"bba/internal/units"
)

// State is everything an algorithm may observe when choosing the rate for
// the next chunk. It corresponds to the observable inputs in the paper:
// buffer occupancy B(t) (the primary signal), the previous rate, and the
// throughput of the immediately preceding chunk download (the only capacity
// estimate BBA2's startup uses).
type State struct {
	// Now is the session clock at decision time.
	Now time.Duration
	// Buffer is the current playback-buffer occupancy B(t).
	Buffer time.Duration
	// BufferMax is the buffer capacity B_max (240 s in the paper).
	BufferMax time.Duration
	// PrevIndex is the ladder index of the previously requested chunk, or
	// -1 before the first request.
	PrevIndex int
	// NextChunk is the index of the chunk about to be requested.
	NextChunk int
	// LastThroughput is the measured average capacity c[k−1] while the
	// previous chunk downloaded; 0 before the first chunk completes.
	LastThroughput units.BitRate
	// LastDownload is how long the previous chunk took to download; 0
	// before the first chunk completes.
	LastDownload time.Duration
	// LastChunkBytes is the size of the previous chunk; 0 initially.
	LastChunkBytes int64
}

// Stream is a session's view of a video: the ladder may start above the
// video's lowest rate when the paper's R_min promotion applies (footnote 3:
// users who historically sustain 560 kb/s get R_min = 560 kb/s). Algorithms
// work in session index space; Stream translates to the underlying encode.
type Stream struct {
	video  *media.Video
	ladder media.Ladder
	offset int
}

// NewStream builds a session view of v whose lowest available rate is the
// smallest ladder rate ≥ rmin. A zero rmin keeps the full ladder.
func NewStream(v *media.Video, rmin units.BitRate) Stream {
	ladder := v.Ladder.FromMin(rmin)
	return Stream{video: v, ladder: ladder, offset: len(v.Ladder) - len(ladder)}
}

// Ladder returns the session's (possibly promoted) rate ladder.
func (s Stream) Ladder() media.Ladder { return s.ladder }

// LadderKbps returns the session ladder's rates in kb/s, index for index:
// the title's table, shared, read-only.
func (s Stream) LadderKbps() []float64 { return s.video.LadderKbps()[s.offset:] }

// Video returns the underlying title.
func (s Stream) Video() *media.Video { return s.video }

// VideoIndex translates a session ladder index to the encode's ladder index.
func (s Stream) VideoIndex(i int) int { return i + s.offset }

// ChunkSize returns the size of chunk k at session ladder index i.
func (s Stream) ChunkSize(i, k int) int64 {
	return s.video.ChunkSize(i+s.offset, k)
}

// Column returns the sizes of chunk k at every session rate, lowest first,
// with k clamped into the title so decisions near its end stay defined. It
// aliases the title's storage: read-only.
func (s Stream) Column(k int) []int64 { return s.video.Column(k)[s.offset:] }

// WindowSum returns the total size at session index i of the window chunks
// from k on, each clamped into the title as Column clamps k, in O(1).
func (s Stream) WindowSum(i, k, window int) int64 {
	return s.video.WindowSum(i+s.offset, k, window)
}

// NominalChunkSize returns the average (V·R) chunk size at session index i.
func (s Stream) NominalChunkSize(i int) int64 {
	return s.video.NominalChunkSize(i + s.offset)
}

// NumChunks returns the title's chunk count.
func (s Stream) NumChunks() int { return s.video.NumChunks() }

// ChunkDuration returns V, the fixed chunk playback duration.
func (s Stream) ChunkDuration() time.Duration { return s.video.ChunkDuration }

// Algorithm selects the rate for each chunk of one session.
type Algorithm interface {
	// Name identifies the algorithm in experiment output ("BBA-0",
	// "Control", ...).
	Name() string
	// Next returns the session-ladder index to request chunk
	// st.NextChunk at. Implementations must return an index within the
	// stream's ladder.
	Next(st State, s Stream) int
}

// Factory builds a fresh single-session Algorithm instance.
type Factory func() Algorithm

// SeekAware is implemented by algorithms that must react when the viewer
// seeks: the buffer is flushed and — as the paper notes, the startup phase
// applies "after starting a new video or seeking to a new point" — a
// startup-capable algorithm re-enters its startup phase.
type SeekAware interface {
	// Seeked notifies the algorithm that the buffer was flushed by a
	// seek and the next decision starts a fresh startup phase.
	Seeked()
}

// ReservoirReporter is implemented by algorithms whose decisions flow
// through a dynamic reservoir (BBA-1 and the algorithms built on it). The
// player's telemetry polls it after each decision to emit reservoir-update
// events — the series behind the paper's Figure 12 discussion — without
// the algorithms knowing about telemetry.
type ReservoirReporter interface {
	// LastReservoir returns the effective reservoir (including any
	// right-shift) and the accrued outage protection used by the most
	// recent decision. ok is false before the first decision computes a
	// chunk map.
	LastReservoir() (reservoir, protection time.Duration, ok bool)
}

// RminAlways streams at the lowest rate forever — the paper's Group 2,
// which "minimizes the chances of the buffer running dry, giving us a lower
// bound on the rebuffer rate".
type RminAlways struct{}

// Name implements Algorithm.
func (RminAlways) Name() string { return "Rmin Always" }

// Next implements Algorithm.
func (RminAlways) Next(State, Stream) int { return 0 }

// RmaxAlways streams at the highest rate forever — the opposite degenerate
// policy from the paper's introduction, maximizing quality at the cost of
// extensive rebuffering.
type RmaxAlways struct{}

// Name implements Algorithm.
func (RmaxAlways) Name() string { return "Rmax Always" }

// Next implements Algorithm.
func (RmaxAlways) Next(_ State, s Stream) int { return len(s.Ladder()) - 1 }
