package abr

import (
	"testing"
	"time"

	"bba/internal/units"
)

func bba0Shape(buffer, bufferMax time.Duration) units.BitRate {
	m := RateMap{
		Rmin:      235 * units.Kbps,
		Rmax:      5000 * units.Kbps,
		Reservoir: 90 * time.Second,
		Cushion:   time.Duration(0.9*float64(bufferMax)) - 90*time.Second,
	}
	return m.Rate(buffer)
}

func TestCustomMatchesBBA0OnSameMap(t *testing.T) {
	// A Custom algorithm running BBA-0's exact map must make BBA-0's
	// decisions chunk for chunk (Custom's pinned-map clauses are Algorithm
	// 1's region shortcuts).
	s := cbrStream(t)
	custom := NewCustom("custom-bba0", bba0Shape)
	reference := NewBBA0()
	for b := time.Duration(0); b <= 240*time.Second; b += 2 * time.Second {
		st := stateAt(b, 0, int(b/(4*time.Second)))
		// Drive both from the same externally-imposed prev sequence.
		cGot := custom.Next(st, s)
		rGot := reference.Next(st, s)
		if cGot != rGot {
			t.Fatalf("B=%v: custom chose %d, BBA-0 chose %d", b, cGot, rGot)
		}
		// Re-sync internal prevs so the walk stays aligned.
		custom.prev = rGot
		reference.prev = rGot
	}
}

func TestCustomName(t *testing.T) {
	if got := NewCustom("", bba0Shape).Name(); got != "Custom" {
		t.Errorf("default name = %q", got)
	}
	if got := NewCustom("mine", bba0Shape).Name(); got != "mine" {
		t.Errorf("name = %q", got)
	}
}

func TestCustomClampsOutOfBandMaps(t *testing.T) {
	s := cbrStream(t)
	wild := NewCustom("wild", func(b, _ time.Duration) units.BitRate {
		return 50 * units.Mbps // far above the ladder
	})
	got := wild.Next(stateAt(100*time.Second, -1, 0), s)
	if got != len(s.Ladder())-1 {
		t.Errorf("clamped pick = %d, want top", got)
	}
	floor := NewCustom("floor", func(b, _ time.Duration) units.BitRate {
		return 0
	})
	if got := floor.Next(stateAt(100*time.Second, -1, 0), s); got != 0 {
		t.Errorf("floored pick = %d, want 0", got)
	}
	// From five rungs up, too: Algorithm 1's reservoir clause, not a step
	// to min{R_i : R_i > R_min}, which rebuffers on a link at R_min.
	floor.prev = 5
	if got := floor.Next(stateAt(5*time.Second, 5, 1), s); got != 0 {
		t.Errorf("floored pick from rung 5 = %d, want 0", got)
	}
}

func TestCustomSticky(t *testing.T) {
	// A map value sitting between two rungs must not flap.
	s := cbrStream(t)
	c := NewCustom("steady", func(b, _ time.Duration) units.BitRate {
		return 1200 * units.Kbps // between 1050 and 1750
	})
	first := c.Next(stateAt(100*time.Second, -1, 0), s)
	for i := 1; i < 20; i++ {
		if got := c.Next(stateAt(100*time.Second, first, i), s); got != first {
			t.Fatalf("flapped from %d to %d", first, got)
		}
	}
}
