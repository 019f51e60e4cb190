// Package media models the video side of the system: discrete encoding
// ladders, constant- and variable-bitrate (CBR/VBR) chunk-size processes,
// and the manifests the HTTP substrate serves.
//
// The paper streams 4-second chunks from a ladder of nominal rates
// ("typically 235kb/s standard definition to 5Mb/s high definition") and its
// Section 5 turns on one empirical fact, shown in Figure 10: within a VBR
// encode of nominal rate R the chunk sizes swing around the V·R average with
// a max-to-average ratio of about 2, driven by scene activity. The VBR model
// here reproduces those two statistics with a scene process that is shared
// across the ladder (scenes are a property of the content, not the encode),
// which is also what makes the chunk-map crossings of Figure 21 appear.
//
// A Video holds the one copy of its chunk sizes in the layout rate decisions
// read — column-major, plus per-rate prefix sums — so nothing downstream
// rebuilds a per-session or per-worker index of a title.
package media

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bba/internal/units"
)

// Ladder is an ascending list of the nominal video rates a title is encoded
// at. Rates are distinct and positive.
type Ladder []units.BitRate

// DefaultLadder is the ladder used throughout the experiments. It follows
// the paper's 235 kb/s–5 Mb/s span with the spacing of the Netflix ladder of
// the era (adjacent rates roughly 1.3–1.6× apart).
func DefaultLadder() Ladder {
	return Ladder{
		235 * units.Kbps,
		375 * units.Kbps,
		560 * units.Kbps,
		750 * units.Kbps,
		1050 * units.Kbps,
		1750 * units.Kbps,
		2350 * units.Kbps,
		3000 * units.Kbps,
		4300 * units.Kbps,
		5000 * units.Kbps,
	}
}

// Validate reports whether the ladder is non-empty, positive, strictly
// ascending and therefore usable.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("media: empty ladder")
	}
	for i, r := range l {
		if r <= 0 {
			return fmt.Errorf("media: ladder rate %d is non-positive (%v)", i, r)
		}
		if i > 0 && l[i-1] >= r {
			return fmt.Errorf("media: ladder not strictly ascending at index %d (%v >= %v)", i, l[i-1], r)
		}
	}
	return nil
}

// Min returns R_min, the lowest rate.
func (l Ladder) Min() units.BitRate { return l[0] }

// Max returns R_max, the highest rate.
func (l Ladder) Max() units.BitRate { return l[len(l)-1] }

// Clamp limits a rate index to the valid range.
func (l Ladder) Clamp(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(l) {
		return len(l) - 1
	}
	return i
}

// NextUp returns the index of the next higher rate ("Rate+" in Algorithm 1);
// at the top it returns the top.
func (l Ladder) NextUp(i int) int { return l.Clamp(i + 1) }

// NextDown returns the index of the next lower rate ("Rate−" in Algorithm 1);
// at the bottom it returns the bottom.
func (l Ladder) NextDown(i int) int { return l.Clamp(i - 1) }

// HighestBelow returns the index of the highest ladder rate strictly below
// r, i.e. max{R_i : R_i < r}. If no rate is below r it returns 0.
func (l Ladder) HighestBelow(r units.BitRate) int {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= r })
	if i == 0 {
		return 0
	}
	return i - 1
}

// LowestAbove returns the index of the lowest ladder rate strictly above r,
// i.e. min{R_i : R_i > r}. If no rate is above r it returns the top index.
func (l Ladder) LowestAbove(r units.BitRate) int {
	i := sort.Search(len(l), func(i int) bool { return l[i] > r })
	if i >= len(l) {
		return len(l) - 1
	}
	return i
}

// HighestAtMost returns the index of the highest rate ≤ r, or 0 when every
// rate exceeds r. This is the selection rule capacity-estimating algorithms
// use ("pick the highest rate the (adjusted) estimate can sustain").
func (l Ladder) HighestAtMost(r units.BitRate) int {
	i := sort.Search(len(l), func(i int) bool { return l[i] > r })
	if i == 0 {
		return 0
	}
	return i - 1
}

// IndexOf returns the index of rate r, or -1 when r is not on the ladder.
func (l Ladder) IndexOf(r units.BitRate) int {
	for i, x := range l {
		if x == r {
			return i
		}
	}
	return -1
}

// ParseLadder reads a comma-separated list of kb/s values ("235,560,1750")
// into a validated ladder, the format the command-line tools accept.
func ParseLadder(s string) (Ladder, error) {
	parts := strings.Split(s, ",")
	l := make(Ladder, 0, len(parts))
	for _, p := range parts {
		kbps, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("media: bad ladder entry %q: %w", p, err)
		}
		l = append(l, units.BitRate(kbps)*units.Kbps)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// String renders the ladder in ParseLadder's format.
func (l Ladder) String() string {
	parts := make([]string, len(l))
	for i, r := range l {
		parts[i] = strconv.Itoa(int(r / units.Kbps))
	}
	return strings.Join(parts, ",")
}

// FromMin returns the sub-ladder starting at the lowest rate ≥ rmin. This
// implements the paper's footnote 3: "If a user historically sustained
// 560kb/s we artificially set Rmin = 560kb/s"; the same promotion is applied
// to every test group.
func (l Ladder) FromMin(rmin units.BitRate) Ladder {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= rmin })
	if i >= len(l) {
		i = len(l) - 1
	}
	return l[i:]
}
