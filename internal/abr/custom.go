package abr

import (
	"time"

	"bba/internal/units"
)

// Custom is a buffer-based algorithm over an arbitrary continuous rate map
// — the paper's Section 3 class in its full generality: "any curve f(B) on
// the plane within the feasible region defines a rate map". The discrete
// selection is Algorithm 1 over f: R_min where f(B) is pinned at R_min (the
// reservoir), R_max where it is pinned at R_max (the upper reservoir), and
// in between the previous rate until f(B) crosses the next-higher or
// next-lower ladder rate. The §3.1 theorems hold for it on the discrete
// player under the hypotheses derived in internal/player's TestTheorems.
type Custom struct {
	// Label is the reported algorithm name.
	Label string
	// F evaluates the continuous map at a buffer occupancy; BufferMax is
	// provided so maps can be expressed as fractions of the buffer.
	F func(buffer, bufferMax time.Duration) units.BitRate

	prev int
}

// NewCustom builds a Custom algorithm from a continuous map.
func NewCustom(label string, f func(buffer, bufferMax time.Duration) units.BitRate) *Custom {
	return &Custom{Label: label, F: f, prev: -1}
}

// Name implements Algorithm.
func (c *Custom) Name() string {
	if c.Label == "" {
		return "Custom"
	}
	return c.Label
}

// Next implements Algorithm.
func (c *Custom) Next(st State, s Stream) int {
	l := s.Ladder()
	f := c.F(st.Buffer, st.BufferMax).Clamp(l.Min(), l.Max())
	if c.prev < 0 {
		c.prev = l.HighestAtMost(f)
		return c.prev
	}
	prev := l.Clamp(c.prev)
	ratePlus := l.Max()
	if prev != len(l)-1 {
		ratePlus = l[l.NextUp(prev)]
	}
	rateMinus := l.Min()
	if prev != 0 {
		rateMinus = l[l.NextDown(prev)]
	}
	next := prev
	switch {
	case f <= l.Min():
		// Without this clause a map pinned at R_min steps down from two
		// or more rungs up to min{R_i : R_i > R_min}, whose chunk cannot
		// download at R_min before a buffer of V drains.
		next = 0
	case f >= l.Max():
		next = len(l) - 1
	case f >= ratePlus:
		next = l.HighestBelow(f)
		if next <= prev {
			next = l.NextUp(prev)
		}
	case f <= rateMinus:
		next = l.LowestAbove(f)
		if next >= prev {
			next = l.NextDown(prev)
		}
	}
	c.prev = next
	return next
}
