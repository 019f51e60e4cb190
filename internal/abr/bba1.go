package abr

import (
	"time"
)

// BBA1 is the Section 5 algorithm: BBA0 adapted to variable-bitrate
// encodes. Two changes: the reservoir is recomputed before every decision
// from the sizes of upcoming chunks (Figure 12), and the rate map becomes a
// chunk map, so the barrier comparisons of Algorithm 1 are made against the
// sizes of the next upcoming chunk at the neighbouring rates.
//
// As deployed (§7.1), BBA-1 also accumulates *outage protection*: 400 ms of
// extra reservoir per downloaded chunk while the buffer is increasing and
// below 75% full, bounded at 80 s ("a typical amount of outage protection
// is 20–40 seconds at steady state"). The protection right-shifts the chunk
// map, so the buffer converges to a higher occupancy that can ride out a
// 20–30 s network outage.
type BBA1 struct {
	// ReservoirWindow is X in the Figure 12 calculation (default 480 s).
	ReservoirWindow time.Duration
	// RampEndFraction is where the map reaches Chunk_max, as a fraction
	// of B_max (the paper's 0.9).
	RampEndFraction float64
	// ProtectionPerChunk is the outage-protection accrual per downloaded
	// chunk (400 ms deployed; 0 disables the mechanism).
	ProtectionPerChunk time.Duration
	// MaxProtection bounds the accrued protection (80 s deployed).
	MaxProtection time.Duration
	// FixedReservoir, when positive, bypasses the Figure 12 calculation
	// and pins the reservoir — the ablation that isolates what the
	// dynamic reservoir buys over BBA-0's fixed 90 s choice.
	FixedReservoir time.Duration

	prev       int
	protection time.Duration
	lastBuffer time.Duration
	observed   bool
	lastRes    time.Duration
	haveRes    bool
	bound      *TitlePlan // the plan of the stream view last decided on
}

// NewBBA1 returns a BBA1 with the paper's deployed parameters.
func NewBBA1() *BBA1 {
	return &BBA1{
		ReservoirWindow:    DefaultReservoirWindow,
		RampEndFraction:    0.9,
		ProtectionPerChunk: 400 * time.Millisecond,
		MaxProtection:      80 * time.Second,
		prev:               -1,
	}
}

// Protection returns the currently accrued outage protection.
func (b *BBA1) Protection() time.Duration { return b.protection }

// LastReservoir implements ReservoirReporter: the effective reservoir
// (dynamic or fixed, plus outage protection) of the most recent chunk map.
func (b *BBA1) LastReservoir() (time.Duration, time.Duration, bool) {
	return b.lastRes, b.protection, b.haveRes
}

// observe updates the buffer trend and, when accrue is set, applies the
// §7.1 outage-protection rule for one downloaded chunk.
func (b *BBA1) observe(st State, accrue bool) {
	if accrue && b.observed && b.ProtectionPerChunk > 0 &&
		st.Buffer > b.lastBuffer && st.Buffer < time.Duration(0.75*float64(st.BufferMax)) {
		b.protection += b.ProtectionPerChunk
		if b.protection > b.MaxProtection {
			b.protection = b.MaxProtection
		}
	}
	b.lastBuffer = st.Buffer
	b.observed = true
}

// Name implements Algorithm.
func (b *BBA1) Name() string { return "BBA-1" }

// Map returns the chunk map for the decision at chunk k given the current
// buffer capacity: dynamic reservoir plus accrued outage protection,
// cushion up to RampEndFraction·B_max.
func (b *BBA1) Map(s Stream, k int, bufferMax time.Duration) ChunkMap {
	tp := b.plan(s)
	reservoir := b.FixedReservoir
	if reservoir <= 0 {
		reservoir = tp.Reservoir(k)
	}
	return b.mapWithReservoir(tp, reservoir+b.protection, bufferMax)
}

// plan returns the TitlePlan for s. The bound plan serves until the title,
// the R_min promotion or the window changes; then the title's shared plan
// for the new view is bound.
func (b *BBA1) plan(s Stream) *TitlePlan {
	if !b.bound.matches(s, b.ReservoirWindow) {
		b.bound = s.plan(b.ReservoirWindow)
	}
	return b.bound
}

// mapWithReservoir builds the chunk map over tp's endpoints, shifted right
// by reservoir.
func (b *BBA1) mapWithReservoir(tp *TitlePlan, reservoir, bufferMax time.Duration) ChunkMap {
	b.lastRes = reservoir
	b.haveRes = true
	cushion := time.Duration(b.RampEndFraction*float64(bufferMax)) - reservoir
	if cushion < time.Second {
		cushion = time.Second
	}
	return ChunkMap{
		ChunkMin:  tp.chunkMin,
		ChunkMax:  tp.chunkMax,
		Reservoir: reservoir,
		Cushion:   cushion,
	}
}

// Next implements Algorithm.
func (b *BBA1) Next(st State, s Stream) int {
	b.observe(st, true)
	m := b.Map(s, st.NextChunk, st.BufferMax)
	next := Algorithm1Chunk(m, s, b.prev, st.NextChunk, st.Buffer)
	b.prev = next
	return next
}
