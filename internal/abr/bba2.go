package abr

import (
	"time"
)

// BBA2 is the Section 6 algorithm: BBA1 in steady state, plus an
// estimation-assisted startup ramp while the buffer is still growing from
// empty.
//
// During startup the only capacity signal used is the throughput of the
// immediately previous chunk, expressed through the buffer change
// ΔB = V − ChunkSize/c[k] (equivalently V minus the last download time).
// The rate steps up one rung when ΔB exceeds a threshold that decays
// linearly from 0.875·V on an empty buffer (chunk downloaded 8× faster than
// real time, covering the worst VBR max-to-average ratio e ≈ 2 with
// R_i/R_{i+1} ≈ 2) down to 0.5·V when the cushion is full (2× real time).
// Startup ends when the buffer decreases or when the chunk map starts
// suggesting a higher rate; from then on the algorithm is purely
// buffer-based.
type BBA2 struct {
	// StartThreshold is the ΔB/V required to step up on an empty buffer
	// (the paper's 0.875).
	StartThreshold float64
	// EndThreshold is the ΔB/V required once the cushion is full (the
	// paper's 0.5).
	EndThreshold float64

	steady     BBA1
	inStartup  bool
	prev       int
	prevBuffer time.Duration
	seen       bool
}

// NewBBA2 returns a BBA2 with the paper's parameters.
func NewBBA2() *BBA2 {
	return &BBA2{
		StartThreshold: 0.875,
		EndThreshold:   0.5,
		steady:         *NewBBA1(),
		inStartup:      true,
		prev:           -1,
	}
}

// Name implements Algorithm.
func (b *BBA2) Name() string { return "BBA-2" }

// InStartup reports whether the algorithm is still in its startup phase.
func (b *BBA2) InStartup() bool { return b.inStartup }

// LastReservoir implements ReservoirReporter, forwarding the steady-state
// machinery's chunk-map reservoir.
func (b *BBA2) LastReservoir() (time.Duration, time.Duration, bool) {
	return b.steady.LastReservoir()
}

// Seeked implements SeekAware: a seek flushes the buffer, so the algorithm
// re-enters the startup phase (§6: startup applies "after starting a new
// video or seeking to a new point"). Accrued outage protection persists —
// it describes the connection, not the playback position.
func (b *BBA2) Seeked() {
	b.inStartup = true
	b.prevBuffer = 0
	// Back to the first-request state: the next chunk is fetched at
	// R_min on the empty buffer, exactly like a session start.
	b.prev = -1
	b.steady.prev = -1
}

// Next implements Algorithm.
func (b *BBA2) Next(st State, s Stream) int {
	l := s.Ladder()
	if b.prev < 0 {
		// First chunk: empty buffer, no throughput observed yet.
		b.prev = 0
		b.prevBuffer = st.Buffer
		b.seen = true
		b.steady.prev = 0
		return 0
	}

	// §7.1: outage protection accrues only after the startup phase ends.
	b.steady.observe(st, !b.inStartup)

	m := b.steady.Map(s, st.NextChunk, st.BufferMax)
	mapSuggestion := Algorithm1Chunk(m, s, b.prev, st.NextChunk, st.Buffer)

	if b.inStartup {
		if st.Buffer < b.prevBuffer || mapSuggestion > b.prev {
			// "BBA-2 continues to use this startup algorithm until
			// (1) the buffer is decreasing, or (2) the chunk map
			// suggests a higher rate."
			b.inStartup = false
		}
	}

	next := mapSuggestion
	if b.inStartup {
		next = b.prev
		if b.stepUpAllowed(st, s, m) {
			next = l.NextUp(b.prev)
		}
	}

	b.prevBuffer = st.Buffer
	b.prev = next
	b.steady.prev = next
	return next
}

// stepUpAllowed applies the ΔB rule for one decision.
func (b *BBA2) stepUpAllowed(st State, s Stream, m ChunkMap) bool {
	if b.prev >= len(s.Ladder())-1 {
		return false
	}
	if st.LastDownload <= 0 {
		return false
	}
	v := s.ChunkDuration()
	deltaB := v - st.LastDownload
	rampEnd := m.Reservoir + m.Cushion
	frac := 0.0
	if rampEnd > 0 {
		frac = float64(st.Buffer) / float64(rampEnd)
		if frac > 1 {
			frac = 1
		}
	}
	threshold := b.StartThreshold - (b.StartThreshold-b.EndThreshold)*frac
	return deltaB >= time.Duration(threshold*float64(v))
}
