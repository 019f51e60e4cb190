package abr

import (
	"time"
)

// BBAOthers is the Section 7 algorithm. On top of BBA2's startup-plus-
// chunk-map core it adds the three production refinements the paper
// evaluates in its final experiment:
//
//  1. Lookahead smoothing (§7.2): an up-switch suggested by the chunk map
//     is taken only if it would survive the next several chunks — as many
//     as are currently buffered, up to 60 — so a single small chunk cannot
//     trigger a switch that the following large chunks immediately revert.
//     Decreases are never smoothed, to avoid extra rebuffer risk.
//  2. Right-shift-only reservoir (§7.2): the dynamic reservoir may grow
//     but never shrink, removing the map wobble that reservoir
//     recalculation causes. "Since the reservoir cannot be shrinked, the
//     reservoir grows faster than it needs to, letting us use the excess
//     for outage protection" — the ratchet excess is the §7.1 outage
//     protection, rather than the per-chunk accrual used in the BBA-1 and
//     BBA-2 deployments.
type BBAOthers struct {
	// MaxLookahead bounds the smoothing window in chunks (60 in the
	// paper: a full 240 s buffer of 4 s chunks).
	MaxLookahead int

	core          BBA2
	maxReservoir  time.Duration
	lastDynamic   time.Duration
	lastBuffer    time.Duration
	started       bool
	startupActive bool
}

// NewBBAOthers returns a BBAOthers with the paper's parameters.
func NewBBAOthers() *BBAOthers {
	b := &BBAOthers{
		MaxLookahead:  60,
		core:          *NewBBA2(),
		startupActive: true,
	}
	// The ratcheted reservoir replaces the per-chunk protection accrual.
	b.core.steady.ProtectionPerChunk = 0
	return b
}

// Name implements Algorithm.
func (b *BBAOthers) Name() string { return "BBA-Others" }

// Protection returns the current outage protection: the excess of the
// ratcheted reservoir over what the instantaneous Figure 12 calculation
// requires.
func (b *BBAOthers) Protection() time.Duration {
	if b.maxReservoir <= b.lastDynamic {
		return 0
	}
	return b.maxReservoir - b.lastDynamic
}

// EffectiveReservoir returns the reservoir the chunk map is currently
// shifted by: the right-shift-only (ratcheted) dynamic reservoir.
func (b *BBAOthers) EffectiveReservoir() time.Duration { return b.maxReservoir }

// LastReservoir implements ReservoirReporter: the ratcheted reservoir of
// the most recent chunk map, with the ratchet excess as protection.
func (b *BBAOthers) LastReservoir() (time.Duration, time.Duration, bool) {
	r, _, ok := b.core.steady.LastReservoir()
	return r, b.Protection(), ok
}

// Seeked implements SeekAware: re-enter startup; the reservoir ratchet is
// released because it tracked the upcoming chunks of the old position.
func (b *BBAOthers) Seeked() {
	b.startupActive = true
	b.core.Seeked()
	// The ratchet tracked the upcoming chunks of the old position;
	// release it and let the first post-seek decision re-initialize.
	b.maxReservoir = 0
	b.started = false
}

// Next implements Algorithm.
func (b *BBAOthers) Next(st State, s Stream) int {
	// Right-shift-only reservoir: the chunk map may move right, never
	// left. The clamp in DynamicReservoir bounds the ratchet at 140 s.
	tp := b.core.steady.plan(s)
	reservoir := tp.Reservoir(st.NextChunk)
	b.lastDynamic = reservoir
	if reservoir > b.maxReservoir {
		b.maxReservoir = reservoir
	}
	effective := b.maxReservoir

	if !b.started {
		b.started = true
		b.lastBuffer = st.Buffer
		// Delegate the very first decision to the core (returns R_min).
		return b.core.Next(st, s)
	}

	// Run the BBA2 core, but against the shifted, non-shrinking map. The
	// core's own dynamic reservoir is bypassed by computing the map here
	// and replaying its decision logic.
	m := b.core.steady.mapWithReservoir(tp, effective, st.BufferMax)
	prev := b.core.prev
	mapSuggestion := Algorithm1Chunk(m, s, prev, st.NextChunk, st.Buffer)

	if b.startupActive {
		if st.Buffer < b.core.prevBuffer || mapSuggestion > prev {
			b.startupActive = false
		}
	}

	next := mapSuggestion
	if b.startupActive {
		next = prev
		if b.core.stepUpAllowed(st, s, m) {
			next = s.Ladder().NextUp(prev)
		}
	} else if next > prev && !b.upSwitchSurvivesLookahead(m, s, next, st) {
		// Smooth increases only (§7.2).
		next = prev
	}

	b.core.prevBuffer = st.Buffer
	b.core.prev = next
	b.core.steady.prev = next
	b.core.inStartup = b.startupActive
	b.lastBuffer = st.Buffer
	return next
}

// upSwitchSurvivesLookahead checks that stepping up to candidate would not
// soon be reverted: an up-switch triggered by one small chunk while the
// chunks behind it are big is the switch-and-switch-back pattern of
// Figure 21 that the smoothing exists to suppress. The window is the
// paper's — as many chunks as are currently buffered, at most 60 — and the
// revert test is against sustained pressure (the window's mean size at the
// next-lower rate crossing the map value), so a single large chunk does not
// permanently pin the rate down.
func (b *BBAOthers) upSwitchSurvivesLookahead(m ChunkMap, s Stream, candidate int, st State) bool {
	v := s.ChunkDuration()
	window := 1
	if v > 0 {
		window = int(st.Buffer / v)
	}
	if window < 1 {
		window = 1
	}
	if window > b.MaxLookahead {
		window = b.MaxLookahead
	}
	cap := m.MaxChunk(st.Buffer)
	below := s.Ladder().NextDown(candidate)
	return cap > s.WindowSum(below, st.NextChunk, window)/int64(window)
}
